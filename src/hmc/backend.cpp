#include "hmc/backend.hpp"

namespace coolpim::hmc {

bool backend_from_name(std::string_view name, BackendKind& out) {
  for (const BackendInfo& b : kRegisteredBackends) {
    if (b.cli_name == name) {
      out = b.kind;
      return true;
    }
  }
  return false;
}

std::string backend_names() {
  std::string names;
  for (const BackendInfo& b : kRegisteredBackends) {
    if (!names.empty()) names += ", ";
    names += b.cli_name;
  }
  return names;
}

}  // namespace coolpim::hmc
