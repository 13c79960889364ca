#include "workloads/proxy_kernels.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/crc32.hpp"

namespace ndpcr::workloads {
namespace {

// SplitMix64 - local copy so the kernels depend only on their seed, not
// on another library's hashing choices.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from a (seed, index) pair.
double unit(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(mix64(seed ^ index) >> 11) * 0x1.0p-53;
}

// Order-sensitive CRC over a list of regions - the shared fingerprint
// primitive. Scalars participate as raw bytes too: two states that differ
// only in the iteration counter must not collide.
class Digest {
 public:
  void add(const void* data, std::size_t size) {
    crc_.update(ByteSpan(static_cast<const std::byte*>(data), size));
  }
  template <typename T>
  void add_vector(const std::vector<T>& v) {
    add(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const {
    return (static_cast<std::uint64_t>(crc_.value()) << 32) | crc_.value();
  }

 private:
  Crc32 crc_;
};

// ---------------------------------------------------------------------
// cg: conjugate gradient on a seeded SPD tridiagonal system.

class CgKernel final : public ProxyKernel {
 public:
  CgKernel(std::size_t target_bytes, std::uint64_t seed) {
    // Five n-sized double regions: diag, b, x, r, p.
    n_ = std::max<std::size_t>(64, target_bytes / (5 * sizeof(double)));
    diag_.resize(n_);
    b_.resize(n_);
    x_.assign(n_, 0.0);
    r_.resize(n_);
    p_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      // Diagonally dominant: off-diagonals are -1, so diag in [4, 6).
      diag_[i] = 4.0 + 2.0 * unit(seed, i);
      b_[i] = unit(seed ^ 0x5CA1AB1Eull, i) - 0.5;
    }
    // x = 0, r = b, p = r.
    r_ = b_;
    p_ = r_;
    s_.rho = dot(r_, r_);
    s_.initial_residual = std::sqrt(s_.rho);
    registry_.register_vector("cg.diag", diag_);
    registry_.register_vector("cg.b", b_);
    registry_.register_vector("cg.x", x_);
    registry_.register_vector("cg.r", r_);
    registry_.register_vector("cg.p", p_);
    registry_.register_region("cg.scalars", &s_, sizeof(s_));
  }

  [[nodiscard]] std::string name() const override { return "cg"; }

  void iterate() override {
    // q = A p with A = tridiag(-1, diag, -1); fixed evaluation order.
    std::vector<double> q(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      double v = diag_[i] * p_[i];
      if (i > 0) v -= p_[i - 1];
      if (i + 1 < n_) v -= p_[i + 1];
      q[i] = v;
    }
    const double pq = dot(p_, q);
    const double alpha = s_.rho / pq;
    for (std::size_t i = 0; i < n_; ++i) x_[i] += alpha * p_[i];
    for (std::size_t i = 0; i < n_; ++i) r_[i] -= alpha * q[i];
    const double rho_next = dot(r_, r_);
    const double beta = rho_next / s_.rho;
    for (std::size_t i = 0; i < n_; ++i) p_[i] = r_[i] + beta * p_[i];
    s_.rho = rho_next;
    ++s_.iteration;
  }

  [[nodiscard]] std::uint64_t iteration() const override {
    return s_.iteration;
  }
  [[nodiscard]] double residual() const override {
    return std::sqrt(s_.rho);
  }
  [[nodiscard]] bool verify() const override {
    // CG on an SPD system: the residual is finite and never blows up
    // past its start (diagonal dominance keeps the iteration stable).
    return std::isfinite(s_.rho) && s_.rho >= 0.0 &&
           residual() <= s_.initial_residual * 1e3 + 1e-12;
  }
  [[nodiscard]] std::uint64_t fingerprint() const override {
    Digest d;
    d.add_vector(diag_);
    d.add_vector(b_);
    d.add_vector(x_);
    d.add_vector(r_);
    d.add_vector(p_);
    d.add(&s_, sizeof(s_));
    return d.value();
  }

 private:
  static double dot(const std::vector<double>& a,
                    const std::vector<double>& b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
    return sum;
  }

  struct Scalars {
    std::uint64_t iteration = 0;
    double rho = 0.0;
    double initial_residual = 0.0;
  };

  std::size_t n_ = 0;
  std::vector<double> diag_, b_, x_, r_, p_;
  Scalars s_;
};

// ---------------------------------------------------------------------
// mg: two-level V-cycles on a 1D Poisson problem -u'' = f, h = 1.

class MgKernel final : public ProxyKernel {
 public:
  MgKernel(std::size_t target_bytes, std::uint64_t seed) {
    // Two n-sized double regions: u, f. n even for the 2:1 coarsening.
    n_ = std::max<std::size_t>(128, target_bytes / (2 * sizeof(double)));
    n_ &= ~std::size_t{1};
    u_.assign(n_, 0.0);
    f_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      f_[i] = unit(seed, i) - 0.5;
    }
    s_.initial_residual = residual_norm();
    registry_.register_vector("mg.u", u_);
    registry_.register_vector("mg.f", f_);
    registry_.register_region("mg.scalars", &s_, sizeof(s_));
  }

  [[nodiscard]] std::string name() const override { return "mg"; }

  void iterate() override {
    smooth(2);
    // Restrict the fine residual to the coarse grid (full weighting),
    // relax there, prolong the correction back (injection + average).
    const std::size_t nc = n_ / 2;
    std::vector<double> rc(nc, 0.0);
    for (std::size_t i = 0; i < nc; ++i) {
      const std::size_t j = 2 * i;
      const double r0 = point_residual(j);
      const double r1 = point_residual(j + 1);
      rc[i] = 0.5 * (r0 + r1);
    }
    std::vector<double> ec(nc, 0.0);
    for (int sweep = 0; sweep < 4; ++sweep) {
      for (std::size_t i = 0; i < nc; ++i) {
        const double left = i > 0 ? ec[i - 1] : 0.0;
        const double right = i + 1 < nc ? ec[i + 1] : 0.0;
        // Coarse operator: h doubles, so the stencil scale is 1/4.
        ec[i] = (4.0 * rc[i] + left + right) * 0.5;
      }
    }
    for (std::size_t i = 0; i < nc; ++i) {
      u_[2 * i] += ec[i];
      u_[2 * i + 1] += ec[i];
    }
    smooth(2);
    s_.residual = residual_norm();
    ++s_.iteration;
  }

  [[nodiscard]] std::uint64_t iteration() const override {
    return s_.iteration;
  }
  [[nodiscard]] double residual() const override {
    return s_.iteration == 0 ? s_.initial_residual : s_.residual;
  }
  [[nodiscard]] bool verify() const override {
    return std::isfinite(residual()) &&
           residual() <= s_.initial_residual * 1e3 + 1e-12;
  }
  [[nodiscard]] std::uint64_t fingerprint() const override {
    Digest d;
    d.add_vector(u_);
    d.add_vector(f_);
    d.add(&s_, sizeof(s_));
    return d.value();
  }

 private:
  // -u'' with Dirichlet zero boundaries: (2u_i - u_{i-1} - u_{i+1}).
  [[nodiscard]] double point_residual(std::size_t i) const {
    const double left = i > 0 ? u_[i - 1] : 0.0;
    const double right = i + 1 < n_ ? u_[i + 1] : 0.0;
    return f_[i] - (2.0 * u_[i] - left - right);
  }

  void smooth(int sweeps) {
    // Weighted Jacobi, omega = 2/3, fixed order via a staging buffer.
    std::vector<double> next(n_);
    for (int s = 0; s < sweeps; ++s) {
      for (std::size_t i = 0; i < n_; ++i) {
        const double left = i > 0 ? u_[i - 1] : 0.0;
        const double right = i + 1 < n_ ? u_[i + 1] : 0.0;
        const double jacobi = (f_[i] + left + right) * 0.5;
        next[i] = u_[i] + (2.0 / 3.0) * (jacobi - u_[i]);
      }
      u_.swap(next);
    }
  }

  [[nodiscard]] double residual_norm() const {
    double max = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      max = std::max(max, std::abs(point_residual(i)));
    }
    return max;
  }

  struct Scalars {
    std::uint64_t iteration = 0;
    double residual = 0.0;
    double initial_residual = 0.0;
  };

  std::size_t n_ = 0;
  std::vector<double> u_, f_;
  Scalars s_;
};

// ---------------------------------------------------------------------
// ft: spectral evolution of a complex field under a constant phase
// table, with an NPB-FT-style probe checksum.

class FtKernel final : public ProxyKernel {
 public:
  FtKernel(std::size_t target_bytes, std::uint64_t seed) {
    // Two 2n-sized double regions: the interleaved (re, im) spectrum and
    // the constant phase table.
    n_ = std::max<std::size_t>(64, target_bytes / (4 * sizeof(double)));
    spectrum_.resize(2 * n_);
    phase_.resize(2 * n_);
    for (std::size_t k = 0; k < n_; ++k) {
      spectrum_[2 * k] = unit(seed, k) - 0.5;
      spectrum_[2 * k + 1] = unit(seed ^ 0xF0F0F0F0ull, k) - 0.5;
      // exp(i theta_k) * mild decay: unitary-ish evolution that neither
      // blows up nor collapses over the harness's horizon.
      const double theta =
          6.283185307179586 * unit(seed ^ 0x7E57ull, k);
      const double decay = 1.0 - 1e-4 * unit(seed ^ 0xDECAull, k);
      phase_[2 * k] = decay * std::cos(theta);
      phase_[2 * k + 1] = decay * std::sin(theta);
    }
    s_.checksum_re = probe_re();
    registry_.register_vector("ft.spectrum", spectrum_);
    registry_.register_vector("ft.phase", phase_);
    registry_.register_region("ft.scalars", &s_, sizeof(s_));
  }

  [[nodiscard]] std::string name() const override { return "ft"; }

  void iterate() override {
    for (std::size_t k = 0; k < n_; ++k) {
      const double re = spectrum_[2 * k];
      const double im = spectrum_[2 * k + 1];
      const double pr = phase_[2 * k];
      const double pi = phase_[2 * k + 1];
      spectrum_[2 * k] = re * pr - im * pi;
      spectrum_[2 * k + 1] = re * pi + im * pr;
    }
    // NPB FT folds a probe checksum into the verification stream: sample
    // a deterministic stride of modes.
    s_.checksum_re = probe_re();
    ++s_.iteration;
  }

  [[nodiscard]] std::uint64_t iteration() const override {
    return s_.iteration;
  }
  [[nodiscard]] double residual() const override {
    return std::abs(s_.checksum_re);
  }
  [[nodiscard]] bool verify() const override {
    // The evolution is (sub-)unitary: the probe sum stays bounded by the
    // number of probed modes times the max initial magnitude (~0.71).
    return std::isfinite(s_.checksum_re) &&
           std::abs(s_.checksum_re) <= static_cast<double>(kProbes);
  }
  [[nodiscard]] std::uint64_t fingerprint() const override {
    Digest d;
    d.add_vector(spectrum_);
    d.add_vector(phase_);
    d.add(&s_, sizeof(s_));
    return d.value();
  }

 private:
  static constexpr std::size_t kProbes = 17;

  [[nodiscard]] double probe_re() const {
    double sum = 0.0;
    for (std::size_t p = 0; p < kProbes; ++p) {
      sum += spectrum_[2 * ((p * n_) / kProbes)];
    }
    return sum;
  }

  struct Scalars {
    std::uint64_t iteration = 0;
    double checksum_re = 0.0;
  };

  std::size_t n_ = 0;
  std::vector<double> spectrum_, phase_;
  Scalars s_;
};

// ---------------------------------------------------------------------
// MiniApp adapter.

class ProxyKernelMiniApp final : public MiniApp {
 public:
  explicit ProxyKernelMiniApp(std::unique_ptr<ProxyKernel> kernel)
      : kernel_(std::move(kernel)) {}

  [[nodiscard]] std::string name() const override { return kernel_->name(); }
  void step() override { kernel_->iterate(); }
  [[nodiscard]] Bytes checkpoint() const override {
    return kernel_->registry().capture();
  }
  void restore(ByteSpan image) override {
    kernel_->registry().restore(image);
  }
  [[nodiscard]] std::size_t state_bytes() const override {
    return kernel_->registry().total_bytes();
  }
  [[nodiscard]] std::uint64_t state_digest() const override {
    return kernel_->fingerprint();
  }
  [[nodiscard]] std::uint64_t step_count() const override {
    return kernel_->iteration();
  }

 private:
  std::unique_ptr<ProxyKernel> kernel_;
};

}  // namespace

std::unique_ptr<ProxyKernel> make_proxy_kernel(const std::string& name,
                                               std::size_t target_bytes,
                                               std::uint64_t seed) {
  if (name == "cg") return std::make_unique<CgKernel>(target_bytes, seed);
  if (name == "mg") return std::make_unique<MgKernel>(target_bytes, seed);
  if (name == "ft") return std::make_unique<FtKernel>(target_bytes, seed);
  throw std::runtime_error("unknown proxy kernel: " + name);
}

const std::vector<std::string>& proxy_kernel_names() {
  static const std::vector<std::string> names = {"cg", "mg", "ft"};
  return names;
}

std::unique_ptr<MiniApp> make_proxy_kernel_miniapp(
    const std::string& name, std::size_t target_bytes, std::uint64_t seed) {
  return std::make_unique<ProxyKernelMiniApp>(
      make_proxy_kernel(name, target_bytes, seed));
}

}  // namespace ndpcr::workloads
