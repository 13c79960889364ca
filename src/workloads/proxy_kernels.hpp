#pragma once

// NPB-style proxy kernels for the restart-equivalence harness
// (docs/EQUIVALENCE.md). Where the mini-app proxies (miniapp.hpp) model
// checkpoint *content* for the compression study, these model checkpoint
// *semantics*: each kernel is a small, genuinely iterative solver whose
// complete state lives in registered regions (ckpt::RegionRegistry), so a
// checkpoint taken at iteration k and restored later continues to
// bit-identical results - the property the equivalence sweep proves.
//
// Three NAS-parallel-benchmark flavors:
//
//   cg - conjugate gradient on a seeded SPD tridiagonal system (NPB CG):
//        solver vectors x/r/p churn every iteration, the matrix diagonal
//        and right-hand side never change (delta- and dedup-friendly).
//   mg - two-level V-cycles on a 1D Poisson problem (NPB MG): smoothed
//        fine grid + constant right-hand side.
//   ft - spectral evolution of a complex field (NPB FT): the spectrum
//        advances by a constant phase table each step, with an NPB-style
//        probe checksum folded into the scalar state.
//
// Determinism contract: iterate() is single-threaded with a fixed
// floating-point evaluation order, all content derives from the seed, and
// every word of mutable state (the iteration counter included) is in a
// registered region. Same seed + same iteration count => bit-identical
// fingerprint(), whether the run was continuous or crash-restarted.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/region.hpp"
#include "workloads/miniapp.hpp"

namespace ndpcr::workloads {

class ProxyKernel {
 public:
  virtual ~ProxyKernel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Advance one solver iteration.
  virtual void iterate() = 0;

  // Iterations completed (part of the registered state: restore rewinds
  // it).
  [[nodiscard]] virtual std::uint64_t iteration() const = 0;

  // The kernel's convergence/evolution metric after the last iteration.
  [[nodiscard]] virtual double residual() const = 0;

  // Iteration-level sanity check: the residual is finite and within the
  // kernel's expected envelope. A restart that resumed from damaged state
  // fails this before any fingerprint comparison runs.
  [[nodiscard]] virtual bool verify() const = 0;

  // Order-sensitive digest over every registered region's bytes, read in
  // place: no RegionRegistry::capture() copy.
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;

  // The regions that constitute the restartable state. capture() feeds
  // MultilevelManager::commit; restore() is the restart path.
  [[nodiscard]] ckpt::RegionRegistry& registry() { return registry_; }
  [[nodiscard]] const ckpt::RegionRegistry& registry() const {
    return registry_;
  }

 protected:
  ckpt::RegionRegistry registry_;
};

// `name` is one of proxy_kernel_names(); `target_bytes` sizes the state
// so a full capture is approximately that large; `seed` determines all
// content.
std::unique_ptr<ProxyKernel> make_proxy_kernel(const std::string& name,
                                               std::size_t target_bytes,
                                               std::uint64_t seed);

// {"cg", "mg", "ft"}.
const std::vector<std::string>& proxy_kernel_names();

// MiniApp adapter so the compression study and its tooling
// (table2_compression_study --apps) can run the proxy kernels alongside
// the Mantevo proxies. step() iterates, checkpoint()/restore() go through
// the kernel's RegionRegistry.
std::unique_ptr<MiniApp> make_proxy_kernel_miniapp(const std::string& name,
                                                   std::size_t target_bytes,
                                                   std::uint64_t seed);

}  // namespace ndpcr::workloads
