// Runtime-dispatched AVX2 clones for the simulator's vector kernels: the
// thermal stencil sweep (thermal/stack_model.cpp), the L2 tag-row replay
// (gpu/cache.cpp) and the RMAT edge sampler (graph/generator.cpp).
//
// Where the toolchain supports ifunc multiversioning (x86-64 ELF), a function
// marked COOLPIM_STENCIL_CLONES is compiled twice, for baseline x86-64 and
// for AVX2, and the loader picks the clone the CPU runs.  AVX2 widens the
// vectors; it does not enable FMA, so every clone performs the same IEEE
// operation sequence and results stay bit-identical across clones.
// ThreadSanitizer builds get the default clone only: GCC runs the ifunc
// resolvers instrumented before the TSan runtime is up, and the binary
// crashes at load.
#pragma once

#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define COOLPIM_STENCIL_CLONES __attribute__((target_clones("default", "avx2")))
#endif
#endif
#ifndef COOLPIM_STENCIL_CLONES
#define COOLPIM_STENCIL_CLONES
#endif
