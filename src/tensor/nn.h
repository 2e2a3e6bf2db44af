// Neural-network modules built on the autodiff Vars: Linear, MLP, GRUCell,
// plus Glorot (Xavier) initialization as prescribed by the paper (§V-E).
// Modules expose their parameters through a registry so optimizers and the
// serializer can traverse any composed model uniformly.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/rng.h"
#include "tensor/dtype.h"
#include "tensor/variable.h"

namespace chainnet::tensor {

/// A named trainable tensor. The underlying tape node is a leaf created at
/// module construction, outside any tape frame, so it persists across
/// forward passes; only intermediates are rebuilt (and frame-released)
/// each pass.
struct Parameter {
  std::string name;
  Var var;
};

/// Base for anything that owns parameters. Submodules register their
/// parameters into the parent's registry with a dotted name prefix.
class Module {
 public:
  virtual ~Module() = default;

  /// All parameters of this module and its registered submodules.
  std::vector<Parameter*> parameters();
  std::vector<const Parameter*> parameters() const;

  /// Zeroes every parameter gradient.
  void zero_grad();

  /// Total number of scalar weights.
  std::size_t parameter_count() const;

 protected:
  /// Creates and registers a parameter of the given shape, Glorot-uniform
  /// initialized with fan_in/fan_out taken from the shape (cols/rows).
  Var register_glorot(const std::string& name, Shape shape,
                      chainnet::support::Rng& rng);
  /// Creates and registers a zero-initialized parameter (biases).
  Var register_zeros(const std::string& name, Shape shape);
  /// Registers a submodule so its parameters appear under `prefix.`.
  void register_module(const std::string& prefix, Module* child);

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  void collect(std::vector<Parameter*>& out);
};

/// Glorot-uniform initialization: U(-a, a) with a = sqrt(6/(fan_in+fan_out)).
void glorot_uniform(std::span<double> weights, std::size_t fan_in,
                    std::size_t fan_out, chainnet::support::Rng& rng);

/// A double buffer as inference tier T reads it: for double, the buffer
/// itself; for float, a converted copy (bf16-rounded when `storage` is
/// kBf16), re-converted only when the source's version or the storage
/// mode moves. The one conversion point of the reduced-precision tier:
/// layer weights, stacked GRU packs and attention parameters all go
/// through it.
class F32Copy {
 public:
  template <class T>
  const T* view(std::span<const double> src, std::uint64_t version,
                DType storage);
  /// A parameter's values, versioned by its tape node.
  template <class T>
  const T* view(const Var& v, DType storage) {
    return view<T>(v.value(), v.node().version, storage);
  }

 private:
  std::vector<float> values_;
  std::uint64_t version_ = 0;
  bool bf16_ = false;
  bool ready_ = false;
};

/// y = W x + b, with W: [out, in].
class Linear : public Module {
 public:
  Linear(std::size_t in, std::size_t out, chainnet::support::Rng& rng,
         const std::string& name = "linear");
  Var forward(const Var& x) const;

  /// Inference-only evaluation into a caller buffer (out = W x + b); no
  /// autodiff graph is built. `out` must have out_features() elements.
  void forward_values(std::span<const double> x,
                      std::span<double> out) const;

  /// Batched inference over n batch columns: `x` is a row-major
  /// [in_features x n] panel, `out` a [out_features x n] panel. For
  /// T = double, column j is bit-identical to forward_values on column j
  /// (see kernels.h) and `storage` is ignored. T = float is the reduced-
  /// precision tier: W/b through F32Copy for `storage` (kBf16 rounds the
  /// weights only; activations stay plain f32) and the f32 kernels.
  template <class T>
  void forward_values_batch(const T* x, T* out, std::size_t n,
                            DType storage) const;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  Var w_, b_;
  mutable F32Copy w_f32_, b_f32_;
};

/// Supported hidden/output nonlinearities for MLP.
enum class Activation { kNone, kRelu, kTanh, kSigmoid, kLeakyRelu, kSoftplus };

Var apply_activation(const Var& x, Activation act);

/// Multi-layer perceptron: Linear -> act -> ... -> Linear -> out_act.
/// The paper's MLP_tput / MLP_latency heads (eq. 12) are instances with a
/// sigmoid output when learning the (0,1)-ratio targets of Table II.
class Mlp : public Module {
 public:
  Mlp(const std::vector<std::size_t>& layer_sizes, Activation hidden,
      Activation output, chainnet::support::Rng& rng,
      const std::string& name = "mlp");
  Var forward(Var x) const;

  /// Reusable buffers for forward_values; hold one per call site that loops
  /// (the SA hot path) so steady-state inference performs no allocations.
  struct Scratch {
    std::vector<double> a, b;
    std::vector<float> a_f, b_f;  // reduced-precision tier
  };

  /// Cold-path-only convenience overload: constructs a fresh Scratch (two
  /// heap allocations) per call. Warm paths must hold a persistent Scratch
  /// and use the overload below.
  void forward_values(std::span<const double> x, std::span<double> out) const;
  /// Inference-only evaluation; `out` must have output-layer width.
  void forward_values(std::span<const double> x, std::span<double> out,
                      Scratch& scratch) const;

  /// Batched inference over n batch columns: `x` is a row-major
  /// [input x n] panel, `out` a [output x n] panel. Column j is
  /// bit-identical to forward_values on column j for T = double; T = float
  /// is the reduced-precision tier (see Linear).
  template <class T>
  void forward_values_batch(const T* x, T* out, std::size_t n,
                            Scratch& scratch, DType storage) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation hidden_, output_;
};

/// Applies an activation elementwise to a raw buffer (inference path).
void apply_activation_values(std::span<double> x, Activation act);

/// Float flavor for the reduced-precision tier: same shapes, evaluated in
/// f32 arithmetic (expf/tanhf and friends via the float overloads).
void apply_activation_values(std::span<float> x, Activation act);

/// Gated recurrent unit cell (Cho et al. 2014), used for the paper's three
/// update functions phi_C, phi_F, phi_D (§V-D4):
///   r = sigmoid(W_ir x + b_ir + W_hr h + b_hr)
///   z = sigmoid(W_iz x + b_iz + W_hz h + b_hz)
///   n = tanh  (W_in x + b_in + r * (W_hn h + b_hn))
///   h' = (1 - z) * n + z * h
class GruCell : public Module {
 public:
  GruCell(std::size_t input, std::size_t hidden, chainnet::support::Rng& rng,
          const std::string& name = "gru");
  /// Returns the next hidden state h'. `h` has size hidden, `x` size input.
  Var forward(const Var& h, const Var& x) const;

  /// Reusable gate buffers (see Mlp::Scratch). The batched path uses
  /// gi/gh (stacked [3H x n] gate pre-activations); the reference path
  /// uses the per-gate vectors.
  struct Scratch {
    std::vector<double> r, z, ni, nh, tmp;  // reference (pre-fusion) path
    std::vector<double> gi, gh;             // batched path
    std::vector<float> gi_f, gh_f;          // reduced-precision tier
  };

  /// Inference-only evaluation into `h_out` (size hidden); no graph built.
  /// The pre-fusion path: six independent naive GEMVs, kept as the
  /// bit-parity oracle the interpreted reference walk runs on.
  void forward_values_reference(std::span<const double> h,
                                std::span<const double> x,
                                std::span<double> h_out,
                                Scratch& scratch) const;

  /// Batched step over n batch columns, dispatching the packed
  /// [3Hxin]/[3HxH] weight blocks through the GEMM. `h` and `h_out` are
  /// row-major [hidden x n] panels, `x` a [input x n] panel; for
  /// T = double, column j is bit-identical to forward_values_reference on
  /// column j (pinned by plan_test) and `storage` is ignored. T = float is
  /// the reduced-precision tier: the packs through F32Copy for `storage`,
  /// gates in f32 arithmetic. `h_out` must not alias `h` or `x`.
  template <class T>
  void forward_values_batch(const T* h, const T* x, T* h_out, std::size_t n,
                            Scratch& scratch, DType storage) const;

  std::size_t input_size() const { return input_; }
  std::size_t hidden_size() const { return hidden_; }

 private:
  /// Re-packs wi/wh/bi/bh from the twelve parameters when any parameter
  /// version changed (optimizer step, deserialization, gradcheck nudges).
  void ensure_packed() const;

  std::size_t input_, hidden_;
  Var w_ir_, w_iz_, w_in_;
  Var w_hr_, w_hz_, w_hn_;
  Var b_ir_, b_iz_, b_in_;
  Var b_hr_, b_hz_, b_hn_;

  // Stacked inference blocks in gate order [r; z; n]: wi_pack_ is
  // [3H x input], wh_pack_ [3H x hidden], bi_pack_/bh_pack_ [3H]. Packed
  // lazily on first batched call and re-packed when a parameter's node
  // version moves (Var::mutable_value is the only mutation funnel). Each
  // re-pack bumps pack_generation_ (0: never packed), the version the f32
  // copies of the packs are checked against.
  mutable std::vector<double> wi_pack_, wh_pack_, bi_pack_, bh_pack_;
  mutable std::array<std::uint64_t, 12> pack_versions_{};
  mutable std::uint64_t pack_generation_ = 0;
  mutable F32Copy wi_f32_, wh_f32_, bi_f32_, bh_f32_;
};

}  // namespace chainnet::tensor
