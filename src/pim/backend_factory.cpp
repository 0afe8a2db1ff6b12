// hmc::make_backend lives here, in the topmost backend library: pim:: builds
// on hmc::Vault/Bank, so only this layer can name every registered tier.
#include <memory>

#include "common/error.hpp"
#include "hmc/backend.hpp"
#include "pim/vault_backend.hpp"

namespace coolpim::hmc {

std::unique_ptr<Backend> make_backend(const BackendBuild& build) {
  switch (build.kind) {
    case BackendKind::kEpochThroughput:
      return std::make_unique<EpochThroughputBackend>(build.hmc, build.policy);
    case BackendKind::kPimVault:
      return std::make_unique<pim::PimVaultBackend>(build.hmc, build.policy, build.seed,
                                                    build.pim_kernel);
  }
  throw ConfigError("unregistered backend kind");
}

}  // namespace coolpim::hmc
