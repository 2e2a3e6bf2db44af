#include "core/chainnet.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "gnn/plan.h"
#include "tensor/kernels.h"
#include "tensor/nn.h"
#include "tensor/variable.h"

namespace chainnet::core {

using edge::FeatureMode;
using edge::PlacementGraph;
using gnn::ChainOutput;
using support::Rng;
using namespace chainnet::tensor;

struct ChainNet::Impl : Module {
  ChainNetConfig config;

  // Per-type feature encoders (initial embeddings, Algorithm 2 line 1).
  std::unique_ptr<Linear> enc_service;
  std::unique_ptr<Linear> enc_fragment;
  std::unique_ptr<Linear> enc_device;

  // Update functions phi_C, phi_F, phi_D (GRU cells, §V-D4). Messages are
  // concatenations of two H-dim embeddings, so the GRU input width is 2H.
  std::unique_ptr<GruCell> phi_c;
  std::unique_ptr<GruCell> phi_f;
  std::unique_ptr<GruCell> phi_d;

  // Attention parameters of f_multi (eq. 15-16), per head: scoring matrix
  // W_att [H x 3H], scoring vector alpha [H], and the message transform
  // W_msg [2H x 2H] applied inside the weighted sum.
  struct AttentionHead {
    Var w_att;
    Var alpha;
    Var w_msg;
    F32Copy w_att_f32, alpha_f32, w_msg_f32;  // reduced-tier replay copies
  };
  std::vector<AttentionHead> attention;

  // Output heads (eq. 12).
  std::unique_ptr<Mlp> mlp_tput;
  std::unique_ptr<Mlp> mlp_latency;

  Impl(const ChainNetConfig& cfg, Rng& rng) : config(cfg) {
    if (cfg.hidden <= 0 || cfg.iterations <= 0 || cfg.attention_heads <= 0) {
      throw std::invalid_argument("ChainNetConfig: non-positive sizes");
    }
    const auto h = static_cast<std::size_t>(cfg.hidden);
    enc_service = std::make_unique<Linear>(
        static_cast<std::size_t>(edge::kServiceFeatureDim), h, rng,
        "enc_service");
    enc_fragment = std::make_unique<Linear>(
        static_cast<std::size_t>(edge::kFragmentFeatureDim), h, rng,
        "enc_fragment");
    enc_device = std::make_unique<Linear>(
        static_cast<std::size_t>(edge::kDeviceFeatureDim), h, rng,
        "enc_device");
    register_module("enc_service", enc_service.get());
    register_module("enc_fragment", enc_fragment.get());
    register_module("enc_device", enc_device.get());

    phi_c = std::make_unique<GruCell>(2 * h, h, rng, "phi_c");
    phi_f = std::make_unique<GruCell>(2 * h, h, rng, "phi_f");
    phi_d = std::make_unique<GruCell>(2 * h, h, rng, "phi_d");
    register_module("phi_c", phi_c.get());
    register_module("phi_f", phi_f.get());
    register_module("phi_d", phi_d.get());

    for (int a = 0; a < cfg.attention_heads; ++a) {
      const std::string base = "attn.h" + std::to_string(a);
      AttentionHead head;
      head.w_att = register_glorot(base + ".w_att", Shape{h, 3 * h}, rng);
      head.alpha = register_glorot(base + ".alpha", Shape{h, 1}, rng);
      head.w_msg = register_glorot(base + ".w_msg", Shape{2 * h, 2 * h}, rng);
      attention.push_back(head);
    }

    const Activation out_act =
        cfg.modified_outputs ? Activation::kSigmoid : Activation::kNone;
    mlp_tput = std::make_unique<Mlp>(std::vector<std::size_t>{h, h, 1},
                                     Activation::kRelu, out_act, rng,
                                     "mlp_tput");
    mlp_latency = std::make_unique<Mlp>(std::vector<std::size_t>{h, h, 1},
                                        Activation::kRelu, out_act, rng,
                                        "mlp_latency");
    register_module("mlp_tput", mlp_tput.get());
    register_module("mlp_latency", mlp_latency.get());
  }

  /// f_multi (eq. 14-16): attention-weighted sum of the per-step device
  /// messages, given the device's previous-iteration embedding. Heads are
  /// averaged. With attention ablated, a plain mean of messages is used.
  Var aggregate_device_messages(const Var& device_prev,
                                const std::vector<Var>& messages) {
    if (messages.size() == 1) return messages.front();
    if (!config.attention_aggregation) return mean_of(messages);
    std::vector<Var> head_outputs;
    head_outputs.reserve(attention.size());
    for (const auto& head : attention) {
      // Scores e(h_k, m_t) = alpha^T LeakyReLU(W [h_k || m_t]) (eq. 15).
      std::vector<Var> scores;
      scores.reserve(messages.size());
      for (const auto& m : messages) {
        const Var joint = concat({device_prev, m});
        scores.push_back(
            dot(head.alpha, leaky_relu(matvec(head.w_att, joint), 0.2)));
      }
      // Stable softmax over scalar scores (eq. 16); shifting by the
      // detached max changes neither values nor gradients.
      double max_score = scores.front().item();
      for (const auto& s : scores) max_score = std::max(max_score, s.item());
      std::vector<Var> exps;
      exps.reserve(scores.size());
      for (const auto& s : scores) {
        exps.push_back(exp_(add_scalar(s, -max_score)));
      }
      const Var denom = sum_of(exps);
      const Var inv_denom = exp_(neg(log_(denom)));
      std::vector<Var> weights;
      weights.reserve(exps.size());
      for (const auto& e : exps) weights.push_back(mul(e, inv_denom));
      // f_multi = sum_t alpha_kt * W m_t.
      std::vector<Var> transformed;
      transformed.reserve(messages.size());
      for (const auto& m : messages) {
        transformed.push_back(matvec(head.w_msg, m));
      }
      head_outputs.push_back(weighted_sum(weights, transformed));
    }
    return head_outputs.size() == 1 ? head_outputs.front()
                                    : mean_of(head_outputs);
  }

  std::vector<ChainOutput> run(const PlacementGraph& g) {
    const int num_steps = g.num_fragments();
    const int num_devices = g.num_devices();

    // Initial embeddings (Algorithm 2 line 1).
    std::vector<Var> service(static_cast<std::size_t>(g.num_chains));
    for (int i = 0; i < g.num_chains; ++i) {
      service[static_cast<std::size_t>(i)] =
          tanh_(enc_service->forward(Var::vector(g.service_features[i])));
    }
    std::vector<Var> fragment(static_cast<std::size_t>(num_steps));
    for (int s = 0; s < num_steps; ++s) {
      fragment[static_cast<std::size_t>(s)] =
          tanh_(enc_fragment->forward(Var::vector(g.fragment_features[s])));
    }
    std::vector<Var> device(static_cast<std::size_t>(num_devices));
    for (int n = 0; n < num_devices; ++n) {
      device[static_cast<std::size_t>(n)] =
          tanh_(enc_device->forward(Var::vector(g.device_features[n])));
    }

    // Service embedding at each step of the current iteration, used by the
    // fragment (eq. 8) and device (eq. 10) messages.
    std::vector<Var> service_at_step(static_cast<std::size_t>(num_steps));

    for (int n = 0; n < config.iterations; ++n) {
      // Snapshots of iteration n-1 (messages read stale embeddings).
      const std::vector<Var> fragment_prev = fragment;
      const std::vector<Var> device_prev = device;

      // Chain pass (Algorithm 2 lines 3-11).
      for (int i = 0; i < g.num_chains; ++i) {
        Var h = service[static_cast<std::size_t>(i)];
        for (int s : g.sequences[i]) {
          const auto su = static_cast<std::size_t>(s);
          const auto dn = static_cast<std::size_t>(g.steps[s].device_node);
          // Eq. 6 then eq. 4.
          const Var m_c = concat({fragment_prev[su], device_prev[dn]});
          h = phi_c->forward(h, m_c);
          service_at_step[su] = h;
          // Eq. 8 then eq. 7.
          const Var m_f = concat({h, device_prev[dn]});
          fragment[su] = phi_f->forward(fragment_prev[su], m_f);
        }
        service[static_cast<std::size_t>(i)] = h;  // eq. 5
      }

      // Device pass (Algorithm 2 lines 12-15).
      for (int dn = 0; dn < num_devices; ++dn) {
        const auto dnu = static_cast<std::size_t>(dn);
        std::vector<Var> messages;
        messages.reserve(g.device_node_steps[dnu].size());
        for (int s : g.device_node_steps[dnu]) {
          const auto su = static_cast<std::size_t>(s);
          // Eq. 10: m_D = [h_i^(n),j || h_j^(n-1)].
          messages.push_back(
              concat({service_at_step[su], fragment_prev[su]}));
        }
        const Var m_d = aggregate_device_messages(device_prev[dnu], messages);
        device[dnu] = phi_d->forward(device_prev[dnu], m_d);
      }
    }

    // Readout (eq. 12, Fig. 7).
    std::vector<ChainOutput> outputs(static_cast<std::size_t>(g.num_chains));
    for (int i = 0; i < g.num_chains; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      outputs[iu].throughput = mlp_tput->forward(service[iu]);
      std::vector<Var> frags;
      frags.reserve(g.sequences[i].size());
      for (int s : g.sequences[i]) {
        frags.push_back(fragment[static_cast<std::size_t>(s)]);
      }
      // §VI-B1 change (ii): mean readout generalizes to longer chains; the
      // raw-output ablations revert to the original sum.
      const Var h_latency =
          config.modified_outputs ? mean_of(frags) : sum_of(frags);
      outputs[iu].latency = mlp_latency->forward(h_latency);
    }
    return outputs;
  }

  // ------------------------------------------------------------------
  // Interpreted inference path: identical computation over raw buffers, no
  // autodiff graph. Kept structurally parallel to run() above; the
  // equivalence is pinned by ChainNetFastInference tests. This is the
  // *reference executor*: production forwards replay a compiled plan
  // (replay<T> below), and plan_test pins replay bit-for-bit against this
  // walk. It always runs the pre-fusion kernels (kernels::gemv_naive,
  // GruCell::forward_values_reference), so the parity gates compare the
  // plan executor against independent kernel code. Reached only through
  // forward_values_interpreted.

  using Vec = std::vector<double>;

  /// Buffers reused across run_values calls so the optimizer's steady-state
  /// inference loop performs no allocations. Per-instance state: one model
  /// per thread, per the one-evaluator-per-worker contract of
  /// runtime::EvalService (chainnet_cli builds one ChainNet per worker).
  struct Workspace {
    std::vector<Vec> service, fragment, device;
    std::vector<Vec> fragment_prev, device_prev;
    std::vector<Vec> service_at_step;
    std::vector<Vec> messages;
    Vec hs, message, h_next, m_d, h_latency, scalar;
    Vec joint, act, att_weights, transformed;
    Mlp::Scratch mlp;
    GruCell::Scratch gru;
  };
  Workspace ws_;

  /// Grows `rows` to at least n rows of `width` elements each, keeping
  /// capacity. Row contents are unspecified; callers overwrite them.
  static void fit_rows(std::vector<Vec>& rows, std::size_t n,
                       std::size_t width) {
    if (rows.size() < n) rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) rows[i].resize(width);
  }

  /// dst[0..n) = src[0..n), reusing dst's row capacity.
  static void copy_rows(const std::vector<Vec>& src, std::size_t n,
                        std::vector<Vec>& dst) {
    if (dst.size() < n) dst.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      dst[i].assign(src[i].begin(), src[i].end());
    }
  }

  static void raw_matvec(std::span<const double> w, std::span<const double> x,
                         std::span<double> out) {
    // Bias-free single-accumulator reference. Must go through the kernel
    // layer (not a hand-rolled loop) so it shares whatever rounding regime
    // the dispatched ISA tier uses — the FMA tiers fuse multiply-adds, and
    // a plain loop here would diverge from the fused path by one rounding
    // per product.
    kernels::gemv_naive(w.data(), nullptr, x.data(), out.data(), out.size(),
                        x.size());
  }

  /// f_multi over raw buffers; `out` has size 2H. Scratch lives in ws_.
  void aggregate_device_messages_values(const Vec& device_prev,
                                        std::span<const Vec> messages,
                                        Vec& out) {
    const std::size_t two_h = messages.front().size();
    if (messages.size() == 1) {
      out.assign(messages.front().begin(), messages.front().end());
      return;
    }
    if (!config.attention_aggregation) {
      out.assign(two_h, 0.0);
      for (const auto& m : messages) {
        for (std::size_t j = 0; j < two_h; ++j) out[j] += m[j];
      }
      const double inv = 1.0 / static_cast<double>(messages.size());
      for (auto& v : out) v *= inv;
      return;
    }
    const std::size_t h = device_prev.size();
    out.assign(two_h, 0.0);
    Vec& joint = ws_.joint;
    Vec& act = ws_.act;
    Vec& weights = ws_.att_weights;
    Vec& transformed = ws_.transformed;
    joint.resize(3 * h);
    act.resize(h);
    weights.resize(messages.size());
    transformed.resize(two_h);
    std::copy(device_prev.begin(), device_prev.end(), joint.begin());
    for (const auto& head : attention) {
      // Scores (eq. 15).
      for (std::size_t t = 0; t < messages.size(); ++t) {
        std::copy(messages[t].begin(), messages[t].end(),
                  joint.begin() + static_cast<std::ptrdiff_t>(h));
        raw_matvec(head.w_att.value(), joint, act);
        for (auto& v : act) v = v > 0.0 ? v : 0.2 * v;  // LeakyReLU(0.2)
        double score = 0.0;
        const auto alpha = head.alpha.value();
        for (std::size_t j = 0; j < h; ++j) score += alpha[j] * act[j];
        weights[t] = score;
      }
      // Stable softmax (eq. 16).
      double max_score = weights.front();
      for (double s : weights) max_score = std::max(max_score, s);
      double denom = 0.0;
      for (auto& s : weights) {
        s = std::exp(s - max_score);
        denom += s;
      }
      // Weighted sum of transformed messages, averaged over heads.
      const double head_scale = 1.0 / static_cast<double>(attention.size());
      for (std::size_t t = 0; t < messages.size(); ++t) {
        raw_matvec(head.w_msg.value(), messages[t], transformed);
        const double wgt = head_scale * weights[t] / denom;
        for (std::size_t j = 0; j < two_h; ++j) {
          out[j] += wgt * transformed[j];
        }
      }
    }
  }

  std::vector<gnn::ChainValues> run_values_interpreted(
      const PlacementGraph& g) {
    const auto h = static_cast<std::size_t>(config.hidden);
    const auto num_steps = static_cast<std::size_t>(g.num_fragments());
    const auto num_devices = static_cast<std::size_t>(g.num_devices());
    const auto num_chains = static_cast<std::size_t>(g.num_chains);
    Workspace& ws = ws_;

    fit_rows(ws.service, num_chains, h);
    fit_rows(ws.fragment, num_steps, h);
    fit_rows(ws.device, num_devices, h);
    for (std::size_t i = 0; i < num_chains; ++i) {
      enc_service->forward_values(g.service_features[i], ws.service[i]);
      tensor::apply_activation_values(ws.service[i], Activation::kTanh);
    }
    for (std::size_t s = 0; s < num_steps; ++s) {
      enc_fragment->forward_values(g.fragment_features[s], ws.fragment[s]);
      tensor::apply_activation_values(ws.fragment[s], Activation::kTanh);
    }
    for (std::size_t n = 0; n < num_devices; ++n) {
      enc_device->forward_values(g.device_features[n], ws.device[n]);
      tensor::apply_activation_values(ws.device[n], Activation::kTanh);
    }

    fit_rows(ws.service_at_step, num_steps, h);
    ws.hs.resize(h);
    ws.message.resize(2 * h);
    ws.h_next.resize(h);
    ws.m_d.resize(2 * h);
    for (int n = 0; n < config.iterations; ++n) {
      copy_rows(ws.fragment, num_steps, ws.fragment_prev);
      copy_rows(ws.device, num_devices, ws.device_prev);
      for (std::size_t i = 0; i < num_chains; ++i) {
        ws.hs.assign(ws.service[i].begin(), ws.service[i].end());
        for (int s : g.sequences[static_cast<int>(i)]) {
          const auto su = static_cast<std::size_t>(s);
          const auto dn = static_cast<std::size_t>(g.steps[s].device_node);
          std::copy(ws.fragment_prev[su].begin(), ws.fragment_prev[su].end(),
                    ws.message.begin());
          std::copy(ws.device_prev[dn].begin(), ws.device_prev[dn].end(),
                    ws.message.begin() + static_cast<std::ptrdiff_t>(h));
          phi_c->forward_values_reference(ws.hs, ws.message, ws.h_next, ws.gru);
          ws.hs.swap(ws.h_next);
          ws.service_at_step[su].assign(ws.hs.begin(), ws.hs.end());
          std::copy(ws.hs.begin(), ws.hs.end(), ws.message.begin());
          std::copy(ws.device_prev[dn].begin(), ws.device_prev[dn].end(),
                    ws.message.begin() + static_cast<std::ptrdiff_t>(h));
          phi_f->forward_values_reference(ws.fragment_prev[su], ws.message,
                                          ws.fragment[su], ws.gru);
        }
        ws.service[i].assign(ws.hs.begin(), ws.hs.end());
      }
      for (std::size_t dn = 0; dn < num_devices; ++dn) {
        const auto& steps = g.device_node_steps[dn];
        if (ws.messages.size() < steps.size()) {
          ws.messages.resize(steps.size());
        }
        for (std::size_t t = 0; t < steps.size(); ++t) {
          const auto su = static_cast<std::size_t>(steps[t]);
          Vec& m = ws.messages[t];
          m.resize(2 * h);
          std::copy(ws.service_at_step[su].begin(),
                    ws.service_at_step[su].end(), m.begin());
          std::copy(ws.fragment_prev[su].begin(), ws.fragment_prev[su].end(),
                    m.begin() + static_cast<std::ptrdiff_t>(h));
        }
        aggregate_device_messages_values(
            ws.device_prev[dn],
            std::span<const Vec>(ws.messages.data(), steps.size()), ws.m_d);
        phi_d->forward_values_reference(ws.device_prev[dn], ws.m_d,
                                        ws.device[dn], ws.gru);
      }
    }

    std::vector<gnn::ChainValues> outputs(num_chains);
    ws.h_latency.resize(h);
    ws.scalar.resize(1);
    for (std::size_t i = 0; i < num_chains; ++i) {
      mlp_tput->forward_values(ws.service[i], ws.scalar, ws.mlp);
      outputs[i].throughput = ws.scalar[0];
      outputs[i].has_throughput = true;
      ws.h_latency.assign(h, 0.0);
      const auto& seq = g.sequences[static_cast<int>(i)];
      for (int s : seq) {
        const auto& f = ws.fragment[static_cast<std::size_t>(s)];
        for (std::size_t j = 0; j < h; ++j) ws.h_latency[j] += f[j];
      }
      if (config.modified_outputs) {
        const double inv = 1.0 / static_cast<double>(seq.size());
        for (auto& v : ws.h_latency) v *= inv;
      }
      mlp_latency->forward_values(ws.h_latency, ws.scalar, ws.mlp);
      outputs[i].latency = ws.scalar[0];
      outputs[i].has_latency = true;
    }
    return outputs;
  }

  // ------------------------------------------------------------------
  // Plan executor. The interpreted walk above re-derives the op order per
  // call; replay<T> instead runs a flat op list compiled once per
  // (topology, shape, width) — see gnn/plan.h — over the batched kernels,
  // with every buffer an offset into one arena. B placements of the same
  // system run lock-stepped: chain and fragment state is batch-major (each
  // entity's row-major [H x B] panel keeps its B placements contiguous per
  // row), so every GRU update is one GEMM with B columns. Device state is
  // one [H x D] panel, D = the sum of the placements' used-device counts
  // (device sets differ across placements), addressed through the tables
  // bind() builds. A single placement is a batch of width 1: at B=1 every
  // GRU update is still one GEMM, attention scores all device messages in
  // two panel GEMMs, and the readout runs over all chains at once. The
  // fragment/device panels are double-buffered across iterations (offsets
  // baked per iteration by the compiler), which deletes the interpreted
  // walk's per-iteration snapshot copies. Column b of every panel follows
  // the interpreted walk's op sequence on graphs[b], and the kernels'
  // per-column accumulation order makes every lane of every width
  // bit-for-bit equal to that walk (plan_test, bench_infer parity gate).
  //
  // One template serves every numeric tier (DESIGN.md §15): T = double for
  // kF64, T = float for kF32 and kBf16. Only three things depend on T, each
  // behind a helper below: the arena the plan's offsets index, the nn-layer
  // overload (the f32 one takes config.dtype and reads the layer's
  // converted weight cache), and where the attention weights come from.
  // Outputs widen to double only at the ChainValues boundary.

  /// Plans resolve through this cache; EvalService / ModelRegistry inject
  /// a shared one so all workers reuse each other's compiles.
  std::shared_ptr<gnn::PlanCache> plan_cache_ =
      std::make_shared<gnn::PlanCache>();
  /// Tiny per-model memo in front of the cache: the hot loop re-evaluates
  /// one system at a handful of widths, and the memo answers those without
  /// taking the shard lock. FIFO, capacity kPlanMemoCap.
  static constexpr std::size_t kPlanMemoCap = 8;
  std::vector<std::shared_ptr<const gnn::Plan>> plan_memo_;

  /// Replay-time state: the plan arenas (one per element type, grow-only)
  /// plus the placement-dependent device geometry bind() builds per replay.
  struct PlanExec {
    struct Group {
      int start = 0;  ///< first message column of this (placement, device)
      int count = 0;
      int col = 0;    ///< device column the aggregate lands in
    };
    std::vector<double> arena;
    std::vector<float> arena_f32;
    std::vector<int> device_offset;  ///< per-placement device-column base
    std::vector<int> device_col;     ///< (step, placement) -> device column
    std::vector<int> msg_step, msg_b, msg_col;  ///< message -> source
    std::vector<Group> groups;
    bool any_multi = false;
    Mlp::Scratch mlp;
    GruCell::Scratch gru;
  };
  PlanExec px_;

  gnn::PlanShape plan_shape() const {
    gnn::PlanShape shape;
    shape.hidden = config.hidden;
    shape.iterations = config.iterations;
    shape.attention_heads = config.attention_heads;
    shape.modified_outputs = config.modified_outputs;
    shape.attention_aggregation = config.attention_aggregation;
    shape.dtype = config.dtype;
    return shape;
  }

  std::shared_ptr<const gnn::Plan> plan_for(const PlacementGraph& g,
                                            int width) {
    const gnn::PlanShape shape = plan_shape();
    for (auto it = plan_memo_.rbegin(); it != plan_memo_.rend(); ++it) {
      if (gnn::plan_key_matches((*it)->key, g, shape, width)) return *it;
    }
    auto plan = plan_cache_->lookup_or_compile(g, shape, width);
    if (plan_memo_.size() >= kPlanMemoCap) {
      plan_memo_.erase(plan_memo_.begin());
    }
    plan_memo_.push_back(plan);
    return plan;
  }

  /// Binds the placement-dependent device geometry for a replay. Device
  /// messages, one per execution step, are grouped by (placement, device
  /// node) in contiguous column ranges, so each group's softmax reads a
  /// contiguous score slice; the grouping is fixed across iterations.
  void bind(std::span<const PlacementGraph* const> graphs) {
    const std::size_t B = graphs.size();
    const PlacementGraph& g0 = *graphs.front();
    const auto S = static_cast<std::size_t>(g0.num_fragments());
    px_.device_offset.resize(B + 1);
    px_.device_offset[0] = 0;
    for (std::size_t b = 0; b < B; ++b) {
      px_.device_offset[b + 1] =
          px_.device_offset[b] + graphs[b]->num_devices();
    }
    px_.device_col.resize(S * B);
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t s = 0; s < S; ++s) {
        px_.device_col[s * B + b] =
            px_.device_offset[b] + graphs[b]->steps[s].device_node;
      }
    }
    const std::size_t M = S * B;
    px_.msg_step.resize(M);
    px_.msg_b.resize(M);
    px_.msg_col.resize(M);
    px_.groups.clear();
    px_.any_multi = false;
    int m = 0;
    for (std::size_t b = 0; b < B; ++b) {
      const auto& g = *graphs[b];
      for (int dn = 0; dn < g.num_devices(); ++dn) {
        const auto& steps = g.device_node_steps[dn];
        px_.groups.push_back(PlanExec::Group{
            m, static_cast<int>(steps.size()), px_.device_offset[b] + dn});
        px_.any_multi |= steps.size() > 1;
        for (int sid : steps) {
          px_.msg_step[static_cast<std::size_t>(m)] = sid;
          px_.msg_b[static_cast<std::size_t>(m)] = static_cast<int>(b);
          px_.msg_col[static_cast<std::size_t>(m)] =
              px_.device_offset[b] + dn;
          ++m;
        }
      }
    }
  }

  /// The replay arena of element type T, grown to `elems` (grow-only:
  /// alternating widths through one model must not thrash).
  template <typename T>
  T* arena(std::int64_t elems) {
    std::vector<T>* buffer = nullptr;
    if constexpr (std::is_same_v<T, double>) {
      buffer = &px_.arena;
    } else {
      buffer = &px_.arena_f32;
    }
    if (buffer->size() < static_cast<std::size_t>(elems)) {
      buffer->resize(static_cast<std::size_t>(elems));
    }
    return buffer->data();
  }

  template <typename T>
  struct HeadWeights {
    const T* w_att;
    const T* alpha;
    const T* w_msg;
  };

  /// Attention head `a`'s parameters as T: the master weights themselves
  /// in f64, the head's converted copies in f32.
  template <typename T>
  HeadWeights<T> head_weights(std::size_t a) {
    AttentionHead& head = attention[a];
    return {head.w_att_f32.view<T>(head.w_att, config.dtype),
            head.alpha_f32.view<T>(head.alpha, config.dtype),
            head.w_msg_f32.view<T>(head.w_msg, config.dtype)};
  }

  std::vector<std::vector<gnn::ChainValues>> replay(
      std::span<const PlacementGraph* const> graphs) {
    if (config.dtype == DType::kF64) return replay<double>(graphs);
    return replay<float>(graphs);
  }

  template <typename T>
  std::vector<std::vector<gnn::ChainValues>> replay(
      std::span<const PlacementGraph* const> graphs) {
    const std::size_t B = graphs.size();
    const PlacementGraph& g0 = *graphs.front();
    const auto plan = plan_for(g0, static_cast<int>(B));
    const gnn::Plan& p = *plan;
    const gnn::PlanLayout& L = p.layout;
    bind(graphs);
    const auto h = static_cast<std::size_t>(config.hidden);
    const auto C = static_cast<std::size_t>(g0.num_chains);
    const auto S = static_cast<std::size_t>(g0.num_fragments());
    const std::size_t hW = h * B;
    const auto D = static_cast<std::size_t>(px_.device_offset[B]);
    const std::size_t M = S * B;
    const bool use_attention = config.attention_aggregation && px_.any_multi;
    const T head_scale = T(1) / static_cast<T>(attention.size());
    T* A = arena<T>(p.meta.scratch_elems);
    std::vector<std::vector<gnn::ChainValues>> outputs(B);
    for (std::size_t b = 0; b < B; ++b) outputs[b].resize(C);
    for (const gnn::PlanOp& op : p.ops) {
      switch (op.kind) {
        case gnn::PlanOpKind::kBatchEncodeService: {
          T* enc_in = A + L.enc_in;
          const auto iu = static_cast<std::size_t>(op.a);
          const std::size_t dim = g0.service_features[iu].size();
          for (std::size_t f = 0; f < dim; ++f) {
            for (std::size_t b = 0; b < B; ++b) {
              enc_in[f * B + b] =
                  static_cast<T>(graphs[b]->service_features[iu][f]);
            }
          }
          enc_service->forward_values_batch(enc_in, A + op.out, B,
                                            config.dtype);
          apply_activation_values(std::span<T>(A + op.out, hW),
                                  Activation::kTanh);
          break;
        }
        case gnn::PlanOpKind::kBatchEncodeFragment: {
          T* enc_in = A + L.enc_in;
          const auto su = static_cast<std::size_t>(op.a);
          const std::size_t dim = g0.fragment_features[su].size();
          for (std::size_t f = 0; f < dim; ++f) {
            for (std::size_t b = 0; b < B; ++b) {
              enc_in[f * B + b] =
                  static_cast<T>(graphs[b]->fragment_features[su][f]);
            }
          }
          enc_fragment->forward_values_batch(enc_in, A + op.out, B,
                                             config.dtype);
          apply_activation_values(std::span<T>(A + op.out, hW),
                                  Activation::kTanh);
          break;
        }
        case gnn::PlanOpKind::kBatchEncodeDevices: {
          T* enc_in = A + L.enc_in;
          for (std::size_t b = 0; b < B; ++b) {
            const auto& g = *graphs[b];
            for (int dn = 0; dn < g.num_devices(); ++dn) {
              const std::size_t col =
                  static_cast<std::size_t>(px_.device_offset[b] + dn);
              for (std::size_t f = 0; f < g.device_features[dn].size();
                   ++f) {
                enc_in[f * D + col] = static_cast<T>(g.device_features[dn][f]);
              }
            }
          }
          enc_device->forward_values_batch(enc_in, A + op.out, D, config.dtype);
          apply_activation_values(std::span<T>(A + op.out, h * D),
                                  Activation::kTanh);
          break;
        }
        case gnn::PlanOpKind::kBatchGruChainStep: {
          // m_c = [fragment_prev || device_prev] (eq. 6), phi_c into the
          // step's sas panel (eq. 4), then m_f reuses the bottom half and
          // phi_f writes the fragment panel of the opposite buffer (eq. 7).
          const auto su = static_cast<std::size_t>(op.a);
          T* m_c = A + L.m_c;
          std::copy_n(A + op.in1, hW, m_c);
          const int* cols = px_.device_col.data() + su * B;
          for (std::size_t r = 0; r < h; ++r) {
            const T* src = A + op.aux + r * D;
            T* dst = m_c + (h + r) * B;
            for (std::size_t b = 0; b < B; ++b) dst[b] = src[cols[b]];
          }
          T* sas_row = A + L.sas + su * hW;
          // Stage the carried chain state: a single-step chain's carried
          // panel IS this sas panel, and the batched GRU forbids h
          // aliasing h_out.
          std::copy_n(A + op.in0, hW, A + L.hs);
          phi_c->forward_values_batch(A + L.hs, m_c, sas_row, B, px_.gru,
                                      config.dtype);
          std::copy_n(sas_row, hW, m_c);
          phi_f->forward_values_batch(A + op.in1, m_c, A + op.out, B, px_.gru,
                                      config.dtype);
          break;
        }
        case gnn::PlanOpKind::kBatchGatherMessages: {
          const T* sas = A + L.sas;
          const T* fr = A + op.in0;
          for (std::size_t r = 0; r < h; ++r) {
            T* top = A + L.messages + r * M;
            T* bot = A + L.messages + (h + r) * M;
            for (std::size_t m = 0; m < M; ++m) {
              const auto step = static_cast<std::size_t>(px_.msg_step[m]);
              const std::size_t idx =
                  r * B + static_cast<std::size_t>(px_.msg_b[m]);
              top[m] = sas[step * hW + idx];
              bot[m] = fr[step * hW + idx];
            }
          }
          break;
        }
        case gnn::PlanOpKind::kBatchAggregateInit: {
          for (const PlanExec::Group& grp : px_.groups) {
            T* dst = A + L.m_d + grp.col;
            if (grp.count == 1) {
              const T* src = A + L.messages + grp.start;
              for (std::size_t r = 0; r < 2 * h; ++r) dst[r * D] = src[r * M];
            } else if (!config.attention_aggregation) {
              const T inv = T(1) / static_cast<T>(grp.count);
              for (std::size_t r = 0; r < 2 * h; ++r) {
                const T* src = A + L.messages + r * M + grp.start;
                T acc = T(0);
                for (int t = 0; t < grp.count; ++t) acc += src[t];
                dst[r * D] = acc * inv;
              }
            } else {
              for (std::size_t r = 0; r < 2 * h; ++r) dst[r * D] = T(0);
            }
          }
          break;
        }
        case gnn::PlanOpKind::kBatchAttentionJoints: {
          // No multi-step device anywhere in the batch: every group was
          // fully aggregated by the count==1 copies, skip the attention
          // panels entirely.
          if (!use_attention) break;
          for (std::size_t r = 0; r < h; ++r) {
            const T* src = A + op.in1 + r * D;
            T* dst = A + L.joints + r * M;
            for (std::size_t m = 0; m < M; ++m) {
              dst[m] = src[px_.msg_col[m]];
            }
          }
          std::copy_n(A + L.messages, 2 * h * M, A + L.joints + h * M);
          break;
        }
        case gnn::PlanOpKind::kBatchAttentionHead: {
          if (!use_attention) break;
          const HeadWeights<T> head =
              head_weights<T>(static_cast<std::size_t>(op.a));
          T* att_act = A + L.att_act;
          T* scores = A + L.scores;
          kernels::gemm(head.w_att, nullptr, A + L.joints, att_act, h, 3 * h,
                        M);
          for (std::size_t j = 0; j < h * M; ++j) {
            att_act[j] = att_act[j] > T(0) ? att_act[j] : T(0.2) * att_act[j];
          }
          std::fill_n(scores, M, T(0));
          for (std::size_t j = 0; j < h; ++j) {
            const T a = head.alpha[j];
            const T* row = att_act + j * M;
            for (std::size_t m = 0; m < M; ++m) scores[m] += a * row[m];
          }
          kernels::gemm(head.w_msg, nullptr, A + L.messages, A + L.transformed,
                        2 * h, 2 * h, M);
          for (const PlanExec::Group& grp : px_.groups) {
            if (grp.count <= 1) continue;
            T* sc = scores + grp.start;
            T max_score = sc[0];
            for (int t = 0; t < grp.count; ++t) {
              max_score = std::max(max_score, sc[t]);
            }
            T denom = T(0);
            for (int t = 0; t < grp.count; ++t) {
              sc[t] = std::exp(sc[t] - max_score);
              denom += sc[t];
            }
            T* dst = A + L.m_d + grp.col;
            for (int t = 0; t < grp.count; ++t) {
              const T wgt = head_scale * sc[t] / denom;
              const T* src = A + L.transformed + grp.start +
                             static_cast<std::size_t>(t);
              for (std::size_t r = 0; r < 2 * h; ++r) {
                dst[r * D] += wgt * src[r * M];
              }
            }
          }
          break;
        }
        case gnn::PlanOpKind::kBatchGruDevice: {
          phi_d->forward_values_batch(A + op.in0, A + L.m_d, A + op.out, D,
                                      px_.gru, config.dtype);
          break;
        }
        case gnn::PlanOpKind::kBatchReadout: {
          const std::size_t CB = C * B;
          T* ro_in = A + L.readout_in;
          T* ro_out = A + L.readout_out;
          for (std::size_t i = 0; i < C; ++i) {
            const T* src = A + p.chain_final[i];
            for (std::size_t r = 0; r < h; ++r) {
              std::copy_n(src + r * B, B, ro_in + r * CB + i * B);
            }
          }
          mlp_tput->forward_values_batch(ro_in, ro_out, CB, px_.mlp,
                                         config.dtype);
          for (std::size_t i = 0; i < C; ++i) {
            for (std::size_t b = 0; b < B; ++b) {
              outputs[b][i].throughput =
                  static_cast<double>(ro_out[i * B + b]);
              outputs[b][i].has_throughput = true;
            }
          }
          for (std::size_t i = 0; i < C; ++i) {
            const auto& seq = p.key.topology.sequences[i];
            for (std::size_t r = 0; r < h; ++r) {
              T* dst = ro_in + r * CB + i * B;
              std::fill_n(dst, B, T(0));
              for (int s : seq) {
                const T* f =
                    A + op.in1 + static_cast<std::size_t>(s) * hW + r * B;
                for (std::size_t b = 0; b < B; ++b) dst[b] += f[b];
              }
              if (config.modified_outputs) {
                const T inv = T(1) / static_cast<T>(seq.size());
                for (std::size_t b = 0; b < B; ++b) dst[b] *= inv;
              }
            }
          }
          mlp_latency->forward_values_batch(ro_in, ro_out, CB, px_.mlp,
                                            config.dtype);
          for (std::size_t i = 0; i < C; ++i) {
            for (std::size_t b = 0; b < B; ++b) {
              outputs[b][i].latency = static_cast<double>(ro_out[i * B + b]);
              outputs[b][i].has_latency = true;
            }
          }
          break;
        }
      }
    }
    return outputs;
  }
};

ChainNet::ChainNet(const ChainNetConfig& config, Rng& rng)
    : impl_(std::make_unique<Impl>(config, rng)) {
  register_module("chainnet", impl_.get());
}

ChainNet::~ChainNet() = default;

std::vector<ChainOutput> ChainNet::forward(const PlacementGraph& g) {
  return impl_->run(g);
}

std::vector<gnn::ChainValues> ChainNet::forward_values(
    const PlacementGraph& g) {
  const PlacementGraph* const one[] = {&g};
  return std::move(impl_->replay(one).front());
}

std::vector<std::vector<gnn::ChainValues>> ChainNet::forward_values_batch(
    std::span<const PlacementGraph* const> graphs) {
  gnn::validate_same_system_batch(graphs);
  return impl_->replay(graphs);
}

std::vector<gnn::ChainValues> ChainNet::forward_values_interpreted(
    const PlacementGraph& g) {
  return impl_->run_values_interpreted(g);
}

void ChainNet::set_plan_cache(std::shared_ptr<gnn::PlanCache> cache) {
  impl_->plan_cache_ = cache != nullptr ? std::move(cache)
                                        : std::make_shared<gnn::PlanCache>();
  impl_->plan_memo_.clear();
}

std::shared_ptr<gnn::PlanCache> ChainNet::plan_cache() const {
  return impl_->plan_cache_;
}

tensor::DType ChainNet::dtype() const { return impl_->config.dtype; }

FeatureMode ChainNet::feature_mode() const {
  return impl_->config.modified_inputs ? FeatureMode::kModified
                                       : FeatureMode::kOriginal;
}

bool ChainNet::ratio_outputs() const { return impl_->config.modified_outputs; }

std::string ChainNet::name() const {
  const auto& c = impl_->config;
  if (c.modified_inputs && c.modified_outputs) {
    return c.attention_aggregation ? "ChainNet" : "ChainNet-noattn";
  }
  if (!c.modified_inputs && !c.modified_outputs) return "ChainNet-alpha";
  if (c.modified_inputs) return "ChainNet-beta";
  return "ChainNet-delta";
}

const ChainNetConfig& ChainNet::config() const { return impl_->config; }

}  // namespace chainnet::core
