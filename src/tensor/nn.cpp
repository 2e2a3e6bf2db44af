#include "tensor/nn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "tensor/kernels.h"

namespace chainnet::tensor {

using chainnet::support::Rng;

std::vector<Parameter*> Module::parameters() {
  std::vector<Parameter*> out;
  collect(out);
  return out;
}

std::vector<const Parameter*> Module::parameters() const {
  std::vector<Parameter*> out;
  const_cast<Module*>(this)->collect(out);
  return {out.begin(), out.end()};
}

void Module::collect(std::vector<Parameter*>& out) {
  for (auto& p : params_) out.push_back(p.get());
  for (auto& [prefix, child] : children_) child->collect(out);
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->var.zero_grad();
}

std::size_t Module::parameter_count() const {
  std::size_t total = 0;
  for (const Parameter* p : parameters()) total += p->var.size();
  return total;
}

Var Module::register_glorot(const std::string& name, Shape shape, Rng& rng) {
  std::vector<double> w(shape.size());
  glorot_uniform(w, shape.cols, shape.rows, rng);
  auto p = std::make_unique<Parameter>();
  p->name = name;
  p->var = Var::leaf(shape, std::move(w), /*requires_grad=*/true);
  Var v = p->var;
  params_.push_back(std::move(p));
  return v;
}

Var Module::register_zeros(const std::string& name, Shape shape) {
  auto p = std::make_unique<Parameter>();
  p->name = name;
  p->var = Var::leaf(shape, std::vector<double>(shape.size(), 0.0),
                     /*requires_grad=*/true);
  Var v = p->var;
  params_.push_back(std::move(p));
  return v;
}

void Module::register_module(const std::string& prefix, Module* child) {
  children_.emplace_back(prefix, child);
}

void glorot_uniform(std::span<double> weights, std::size_t fan_in,
                    std::size_t fan_out, Rng& rng) {
  const double a =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (auto& w : weights) w = rng.uniform(-a, a);
}

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in, std::size_t out, Rng& rng,
               const std::string& name)
    : in_(in), out_(out) {
  if (in == 0 || out == 0) throw std::invalid_argument("Linear: zero size");
  w_ = register_glorot(name + ".w", Shape{out, in}, rng);
  b_ = register_zeros(name + ".b", Shape{out, 1});
}

Var Linear::forward(const Var& x) const { return add(matvec(w_, x), b_); }

namespace {

/// out = W x + b over raw buffers (W row-major [rows x cols]). Dispatches
/// to the blocked kernel; bit-identical to the former single-accumulator
/// loop (same per-row accumulation order).
void raw_affine(std::span<const double> w, std::span<const double> b,
                std::span<const double> x, std::span<double> out,
                std::size_t rows, std::size_t cols) {
  kernels::gemv(w.data(), b.empty() ? nullptr : b.data(), x.data(),
                out.data(), rows, cols);
}

/// The pre-fusion affine loop, kept verbatim for forward_values_reference.
void raw_affine_naive(std::span<const double> w, std::span<const double> b,
                      std::span<const double> x, std::span<double> out,
                      std::size_t rows, std::size_t cols) {
  kernels::gemv_naive(w.data(), b.empty() ? nullptr : b.data(), x.data(),
                      out.data(), rows, cols);
}

template <class T>
T sigmoid_value(T x) {
  return T(1) / (T(1) + std::exp(-x));
}

/// The T-typed one of a scratch buffer pair (f64 tier, f32 tier).
template <class T>
std::vector<T>& pick(std::vector<double>& f64, std::vector<float>& f32) {
  if constexpr (std::is_same_v<T, double>) {
    return f64;
  } else {
    return f32;
  }
}

template <class T>
void activate(std::span<T> x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu:
      for (auto& v : x) v = v > T(0) ? v : T(0);
      return;
    case Activation::kTanh:
      for (auto& v : x) v = std::tanh(v);
      return;
    case Activation::kSigmoid:
      for (auto& v : x) v = sigmoid_value(v);
      return;
    case Activation::kLeakyRelu:
      for (auto& v : x) v = v > T(0) ? v : T(0.01) * v;
      return;
    case Activation::kSoftplus:
      for (auto& v : x) {
        v = std::max(v, T(0)) + std::log1p(std::exp(-std::abs(v)));
      }
      return;
  }
  throw std::logic_error("apply_activation_values: unknown activation");
}

}  // namespace

template <class T>
const T* F32Copy::view(std::span<const double> src, std::uint64_t version,
                       DType storage) {
  if constexpr (std::is_same_v<T, double>) {
    return src.data();
  } else {
    // Plain narrowing cast for kF32: the round-to-nearest double->float
    // conversion is the tier's pack step.
    const bool bf16 = storage == DType::kBf16;
    if (!ready_ || version_ != version || bf16_ != bf16) {
      values_.resize(src.size());
      for (std::size_t i = 0; i < src.size(); ++i) {
        const auto v = static_cast<float>(src[i]);
        values_[i] = bf16 ? bf16_round(v) : v;
      }
      version_ = version;
      bf16_ = bf16;
      ready_ = true;
    }
    return values_.data();
  }
}

template const double* F32Copy::view<double>(std::span<const double>,
                                             std::uint64_t, DType);
template const float* F32Copy::view<float>(std::span<const double>,
                                           std::uint64_t, DType);

void Linear::forward_values(std::span<const double> x,
                            std::span<double> out) const {
  if (x.size() != in_ || out.size() != out_) {
    throw std::invalid_argument("Linear::forward_values: size mismatch");
  }
  raw_affine(w_.value(), b_.value(), x, out, out_, in_);
}

template <class T>
void Linear::forward_values_batch(const T* x, T* out, std::size_t n,
                                  DType storage) const {
  kernels::gemm(w_f32_.view<T>(w_, storage), b_f32_.view<T>(b_, storage), x,
                out, out_, in_, n);
}

template void Linear::forward_values_batch<double>(const double*, double*,
                                                   std::size_t, DType) const;
template void Linear::forward_values_batch<float>(const float*, float*,
                                                  std::size_t, DType) const;

void apply_activation_values(std::span<double> x, Activation act) {
  activate(x, act);
}

void apply_activation_values(std::span<float> x, Activation act) {
  activate(x, act);
}

// ------------------------------------------------------------------ Mlp

Var apply_activation(const Var& x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return relu(x);
    case Activation::kTanh:
      return tanh_(x);
    case Activation::kSigmoid:
      return sigmoid(x);
    case Activation::kLeakyRelu:
      return leaky_relu(x);
    case Activation::kSoftplus:
      return softplus(x);
  }
  throw std::logic_error("apply_activation: unknown activation");
}

Mlp::Mlp(const std::vector<std::size_t>& layer_sizes, Activation hidden,
         Activation output, Rng& rng, const std::string& name)
    : hidden_(hidden), output_(output) {
  if (layer_sizes.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output sizes");
  }
  for (std::size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
    layers_.push_back(std::make_unique<Linear>(
        layer_sizes[l], layer_sizes[l + 1], rng,
        name + ".fc" + std::to_string(l)));
    register_module(name + ".fc" + std::to_string(l), layers_.back().get());
  }
}

Var Mlp::forward(Var x) const {
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    x = layers_[l]->forward(x);
    x = apply_activation(x, l + 1 == layers_.size() ? output_ : hidden_);
  }
  return x;
}

void Mlp::forward_values(std::span<const double> x,
                         std::span<double> out) const {
  Scratch scratch;
  forward_values(x, out, scratch);
}

void Mlp::forward_values(std::span<const double> x, std::span<double> out,
                         Scratch& s) const {
  s.a.assign(x.begin(), x.end());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    s.b.resize(layers_[l]->out_features());
    layers_[l]->forward_values(s.a, s.b);
    apply_activation_values(
        s.b, l + 1 == layers_.size() ? output_ : hidden_);
    s.a.swap(s.b);
  }
  if (out.size() != s.a.size()) {
    throw std::invalid_argument("Mlp::forward_values: bad output size");
  }
  std::copy(s.a.begin(), s.a.end(), out.begin());
}

template <class T>
void Mlp::forward_values_batch(const T* x, T* out, std::size_t n, Scratch& s,
                               DType storage) const {
  std::vector<T>& a = pick<T>(s.a, s.a_f);
  std::vector<T>& b = pick<T>(s.b, s.b_f);
  a.assign(x, x + layers_.front()->in_features() * n);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    b.resize(layers_[l]->out_features() * n);
    layers_[l]->forward_values_batch(a.data(), b.data(), n, storage);
    activate(std::span<T>(b), l + 1 == layers_.size() ? output_ : hidden_);
    a.swap(b);
  }
  std::copy(a.begin(), a.end(), out);
}

template void Mlp::forward_values_batch<double>(const double*, double*,
                                                std::size_t, Scratch&,
                                                DType) const;
template void Mlp::forward_values_batch<float>(const float*, float*,
                                               std::size_t, Scratch&,
                                               DType) const;

// -------------------------------------------------------------- GruCell

GruCell::GruCell(std::size_t input, std::size_t hidden, Rng& rng,
                 const std::string& name)
    : input_(input), hidden_(hidden) {
  if (input == 0 || hidden == 0) throw std::invalid_argument("GruCell: zero");
  const Shape wi{hidden, input};
  const Shape wh{hidden, hidden};
  const Shape bs{hidden, 1};
  w_ir_ = register_glorot(name + ".w_ir", wi, rng);
  w_iz_ = register_glorot(name + ".w_iz", wi, rng);
  w_in_ = register_glorot(name + ".w_in", wi, rng);
  w_hr_ = register_glorot(name + ".w_hr", wh, rng);
  w_hz_ = register_glorot(name + ".w_hz", wh, rng);
  w_hn_ = register_glorot(name + ".w_hn", wh, rng);
  b_ir_ = register_zeros(name + ".b_ir", bs);
  b_iz_ = register_zeros(name + ".b_iz", bs);
  b_in_ = register_zeros(name + ".b_in", bs);
  b_hr_ = register_zeros(name + ".b_hr", bs);
  b_hz_ = register_zeros(name + ".b_hz", bs);
  b_hn_ = register_zeros(name + ".b_hn", bs);
}

Var GruCell::forward(const Var& h, const Var& x) const {
  if (h.size() != hidden_ || x.size() != input_) {
    throw std::invalid_argument("GruCell::forward: size mismatch");
  }
  Var r = sigmoid(add(add(matvec(w_ir_, x), b_ir_),
                      add(matvec(w_hr_, h), b_hr_)));
  Var z = sigmoid(add(add(matvec(w_iz_, x), b_iz_),
                      add(matvec(w_hz_, h), b_hz_)));
  Var n = tanh_(add(add(matvec(w_in_, x), b_in_),
                    mul(r, add(matvec(w_hn_, h), b_hn_))));
  // h' = (1 - z) * n + z * h  ==  n - z*n + z*h
  return add(sub(n, mul(z, n)), mul(z, h));
}

void GruCell::ensure_packed() const {
  const Var* params[12] = {&w_ir_, &w_iz_, &w_in_, &w_hr_, &w_hz_, &w_hn_,
                           &b_ir_, &b_iz_, &b_in_, &b_hr_, &b_hz_, &b_hn_};
  if (pack_generation_ != 0) {
    bool stale = false;
    for (std::size_t i = 0; i < 12; ++i) {
      stale |= params[i]->node().version != pack_versions_[i];
    }
    if (!stale) return;
  }
  const std::size_t H = hidden_;
  wi_pack_.resize(3 * H * input_);
  wh_pack_.resize(3 * H * H);
  bi_pack_.resize(3 * H);
  bh_pack_.resize(3 * H);
  const Var* wi[3] = {&w_ir_, &w_iz_, &w_in_};
  const Var* wh[3] = {&w_hr_, &w_hz_, &w_hn_};
  const Var* bi[3] = {&b_ir_, &b_iz_, &b_in_};
  const Var* bh[3] = {&b_hr_, &b_hz_, &b_hn_};
  for (std::size_t g = 0; g < 3; ++g) {
    std::ranges::copy(wi[g]->value(), wi_pack_.begin() + g * H * input_);
    std::ranges::copy(wh[g]->value(), wh_pack_.begin() + g * H * H);
    std::ranges::copy(bi[g]->value(), bi_pack_.begin() + g * H);
    std::ranges::copy(bh[g]->value(), bh_pack_.begin() + g * H);
  }
  for (std::size_t i = 0; i < 12; ++i) {
    pack_versions_[i] = params[i]->node().version;
  }
  ++pack_generation_;
}

void GruCell::forward_values_reference(std::span<const double> h,
                                       std::span<const double> x,
                                       std::span<double> h_out,
                                       Scratch& s) const {
  if (h.size() != hidden_ || x.size() != input_ || h_out.size() != hidden_) {
    throw std::invalid_argument(
        "GruCell::forward_values_reference: size mismatch");
  }
  s.r.resize(hidden_);
  s.z.resize(hidden_);
  s.ni.resize(hidden_);
  s.nh.resize(hidden_);
  s.tmp.resize(hidden_);
  raw_affine_naive(w_ir_.value(), b_ir_.value(), x, s.r, hidden_, input_);
  raw_affine_naive(w_iz_.value(), b_iz_.value(), x, s.z, hidden_, input_);
  raw_affine_naive(w_in_.value(), b_in_.value(), x, s.ni, hidden_, input_);
  raw_affine_naive(w_hr_.value(), b_hr_.value(), h, s.tmp, hidden_, hidden_);
  for (std::size_t i = 0; i < hidden_; ++i) {
    s.r[i] = sigmoid_value(s.r[i] + s.tmp[i]);
  }
  raw_affine_naive(w_hz_.value(), b_hz_.value(), h, s.tmp, hidden_, hidden_);
  for (std::size_t i = 0; i < hidden_; ++i) {
    s.z[i] = sigmoid_value(s.z[i] + s.tmp[i]);
  }
  raw_affine_naive(w_hn_.value(), b_hn_.value(), h, s.nh, hidden_, hidden_);
  for (std::size_t i = 0; i < hidden_; ++i) {
    const double n = std::tanh(s.ni[i] + s.r[i] * s.nh[i]);
    h_out[i] = (1.0 - s.z[i]) * n + s.z[i] * h[i];
  }
}

template <class T>
void GruCell::forward_values_batch(const T* h, const T* x, T* h_out,
                                   std::size_t n, Scratch& s,
                                   DType storage) const {
  ensure_packed();
  const std::size_t H = hidden_;
  const std::uint64_t gen = pack_generation_;
  std::vector<T>& gi = pick<T>(s.gi, s.gi_f);
  std::vector<T>& gh = pick<T>(s.gh, s.gh_f);
  gi.resize(3 * H * n);
  gh.resize(3 * H * n);
  kernels::gemm(wi_f32_.view<T>(wi_pack_, gen, storage),
                bi_f32_.view<T>(bi_pack_, gen, storage), x, gi.data(), 3 * H,
                input_, n);
  kernels::gemm(wh_f32_.view<T>(wh_pack_, gen, storage),
                bh_f32_.view<T>(bh_pack_, gen, storage), h, gh.data(), 3 * H,
                hidden_, n);
  for (std::size_t i = 0; i < H; ++i) {
    const T* gir = gi.data() + i * n;
    const T* giz = gi.data() + (H + i) * n;
    const T* gin = gi.data() + (2 * H + i) * n;
    const T* ghr = gh.data() + i * n;
    const T* ghz = gh.data() + (H + i) * n;
    const T* ghn = gh.data() + (2 * H + i) * n;
    const T* hrow = h + i * n;
    T* out = h_out + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const T r = sigmoid_value(gir[j] + ghr[j]);
      const T z = sigmoid_value(giz[j] + ghz[j]);
      const T nn = std::tanh(gin[j] + r * ghn[j]);
      out[j] = (T(1) - z) * nn + z * hrow[j];
    }
  }
}

template void GruCell::forward_values_batch<double>(const double*,
                                                    const double*, double*,
                                                    std::size_t, Scratch&,
                                                    DType) const;
template void GruCell::forward_values_batch<float>(const float*, const float*,
                                                   float*, std::size_t,
                                                   Scratch&, DType) const;

}  // namespace chainnet::tensor
