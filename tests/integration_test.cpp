// End-to-end pipeline checks: generate -> simulate -> train -> predict ->
// optimize, on deliberately tiny scales. These mirror the paper's workflow
// (Fig. 3) rather than any single module.
#include <gtest/gtest.h>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "gnn/dataset.h"
#include "gnn/metrics.h"
#include "gnn/trainer.h"
#include "optim/annealing.h"
#include "optim/experiment.h"
#include "optim/initial.h"
#include "search/optimizer.h"
#include "support/rng.h"

namespace chainnet {
namespace {

using support::Rng;

gnn::Dataset make_dataset(int count, std::uint64_t seed) {
  gnn::LabelingConfig lc;
  lc.arrivals_per_chain = 400.0;
  auto params = edge::NetworkGenParams::type1();
  params.max_devices = 6;
  params.max_fragments = 4;
  return gnn::generate_dataset(params, count, lc, seed);
}

TEST(Integration, TrainedChainNetBeatsUntrainedOnHeldOut) {
  const auto train_ds = make_dataset(40, 1);
  const auto test_ds = make_dataset(10, 2);

  Rng rng(3);
  core::ChainNetConfig cfg;
  cfg.hidden = 12;
  cfg.iterations = 3;
  core::ChainNet model(cfg, rng);

  const auto before = gnn::summarize(
      gnn::throughput_apes(gnn::evaluate(model, test_ds)));
  gnn::TrainConfig tc;
  tc.epochs = 20;
  tc.batch_size = 8;
  tc.learning_rate = 3e-3;
  gnn::train(model, train_ds, nullptr, tc);
  const auto after = gnn::summarize(
      gnn::throughput_apes(gnn::evaluate(model, test_ds)));

  EXPECT_LT(after.mape, before.mape);
  EXPECT_LT(after.mape, 0.35);  // far better than chance on held-out data
}

TEST(Integration, SurrogateSearchImprovesSimulatedLoss) {
  // Build a small overloaded problem where placement matters: two fast and
  // two very slow devices.
  edge::EdgeSystem sys;
  sys.devices = {{"fast0", 50.0, 2.0},
                 {"fast1", 50.0, 2.0},
                 {"slow0", 50.0, 0.2},
                 {"slow1", 50.0, 0.2}};
  for (int i = 0; i < 2; ++i) {
    edge::ServiceChainSpec chain;
    chain.name = "c" + std::to_string(i);
    chain.arrival_rate = 1.0;
    chain.fragments = {{1.0, 0.8}, {1.0, 0.6}};
    sys.chains.push_back(chain);
  }

  // Ground-truth (simulation) evaluator driving the search directly — this
  // is the paper's baseline method; it must improve the initial placement.
  queueing::SimConfig sim;
  sim.horizon = 3000.0;
  sim.seed = 17;
  optim::SimulationEvaluator eval(sim);
  const auto initial = optim::initial_placement(sys);
  const double x0 = optim::simulated_total_throughput(sys, initial, sim);

  optim::SaConfig sa;
  sa.max_steps = 60;
  sa.seed = 7;
  search::SaOptimizer optimizer(eval, sa);
  const auto result = search::run_trials(optimizer, sys, initial, sa.seed, 3);
  const double x1 =
      optim::simulated_total_throughput(sys, result.best, sim);

  EXPECT_GT(x1, x0);
  const double eta = optim::relative_loss_reduction(sys, x0, x1);
  EXPECT_GT(eta, 0.2);
  EXPECT_LE(optim::loss_probability(sys, x1),
            optim::loss_probability(sys, x0));
}

TEST(Integration, SurrogateEvaluatorDrivesSearchEndToEnd) {
  // Train a small ChainNet on tiny data, then let it drive SA. The point is
  // wiring (placement -> graph -> prediction -> acceptance), not accuracy.
  const auto train_ds = make_dataset(24, 4);
  Rng rng(5);
  core::ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  core::ChainNet model(cfg, rng);
  gnn::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 8;
  gnn::train(model, train_ds, nullptr, tc);

  const auto& sys = train_ds.samples[0].system;
  const auto initial = optim::initial_placement(sys);
  optim::SurrogateEvaluator eval{core::Surrogate(model)};
  optim::SaConfig sa;
  sa.max_steps = 30;
  sa.seed = 13;
  const auto result = optim::anneal(sys, initial, eval, sa);
  EXPECT_NO_THROW(result.best.validate(sys));
  EXPECT_GE(result.best_objective, 0.0);
  // Surrogate throughput can never exceed the offered load (ratio decode).
  EXPECT_LE(result.best_objective, sys.total_arrival_rate() + 1e-9);
  EXPECT_GT(eval.evaluations(), 0u);
}

TEST(Integration, ChainNetGeneralizesAcrossSizesStructurally) {
  // Train on up-to-4-fragment graphs, predict on a 6-fragment chain: the
  // forward pass must produce sane bounded outputs (the design goal of
  // §VI-B). Accuracy on large graphs is exercised by the benches.
  const auto train_ds = make_dataset(16, 6);
  Rng rng(7);
  core::ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  core::ChainNet model(cfg, rng);
  gnn::TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 8;
  gnn::train(model, train_ds, nullptr, tc);

  auto params = edge::NetworkGenParams::type1();
  params.min_fragments = 6;
  params.max_fragments = 6;
  Rng gen_rng(8);
  const auto big = edge::generate_network_sample(params, gen_rng);
  const auto g =
      edge::build_graph(big.system, big.placement, model.feature_mode());
  const auto preds = gnn::predict_physical(model, g);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    EXPECT_GE(preds[i].throughput, 0.0);
    EXPECT_LE(preds[i].throughput,
              big.system.chains[i].arrival_rate + 1e-9);
    EXPECT_GE(preds[i].latency, g.total_processing[i] - 1e-9);
  }
}

}  // namespace
}  // namespace chainnet
