// Loss-aware deployment optimization (the paper's Fig. 3 workflow): train a
// ChainNet surrogate, then drive simulated annealing with it to place 12
// service chains on a fleet of devices, and verify the win by simulation.
//
// Usage: ./build/examples/optimize_deployment [num_devices] [sa_steps]
#include <cstdlib>
#include <iostream>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/problem.h"
#include "gnn/dataset.h"
#include "gnn/trainer.h"
#include "optim/annealing.h"
#include "optim/evaluator.h"
#include "optim/experiment.h"
#include "optim/initial.h"
#include "search/optimizer.h"
#include "support/rng.h"

using namespace chainnet;

int main(int argc, char** argv) {
  const int num_devices = argc > 1 ? std::atoi(argv[1]) : 20;
  const int sa_steps = argc > 2 ? std::atoi(argv[2]) : 100;

  // 1. A placement problem in the style of Table VII.
  support::Rng problem_rng(42);
  const auto system = edge::generate_placement_problem(
      edge::PlacementProblemParams::paper(num_devices), problem_rng);
  std::cout << "problem: " << system.num_chains() << " chains / "
            << system.total_fragments() << " fragments on "
            << system.num_devices() << " devices, lambda_total="
            << system.total_arrival_rate() << "/s\n";

  // 2. Train a compact surrogate. Lesson from the benches: to *rank* SA
  //    neighbors on problems of this shape, a small surrogate needs
  //    training data from the same placement family, so we mix Type-I
  //    samples with random placements of Table-VII-style problems. (A
  //    production deployment would reuse pre-trained weights; see
  //    tensor/serialize.h.)
  gnn::LabelingConfig labeling;
  labeling.arrivals_per_chain = 500.0;
  auto dataset =
      gnn::generate_dataset(edge::NetworkGenParams::type1(), 60, labeling, 3);
  support::Rng mix_rng(17);
  for (int n = 0; n < 80; ++n) {
    auto sys = edge::generate_placement_problem(
        edge::PlacementProblemParams::paper(num_devices), mix_rng);
    auto placement = edge::random_placement(sys, mix_rng);
    gnn::LabelingConfig lc = labeling;
    lc.seed = mix_rng();
    dataset.samples.push_back(
        gnn::label_sample(std::move(sys), std::move(placement), lc));
  }
  support::Rng rng(5);
  core::ChainNetConfig cfg;
  cfg.hidden = 24;
  cfg.iterations = 3;
  core::ChainNet model(cfg, rng);
  gnn::TrainConfig tc;
  tc.epochs = 30;
  std::cout << "training surrogate on " << dataset.size()
            << " simulated deployments...\n";
  gnn::train(model, dataset, nullptr, tc);

  // 3. Optimize with the surrogate in the SA loop.
  const auto initial = optim::initial_placement(system);
  core::Surrogate surrogate(model);
  optim::SurrogateEvaluator evaluator{surrogate};
  optim::SaConfig sa;
  sa.max_steps = sa_steps;
  search::SaOptimizer optimizer(evaluator, sa);
  const auto result =
      search::run_trials(optimizer, system, initial, sa.seed, 5);
  std::cout << "search: " << result.trials << " trials, "
            << result.evaluations << " surrogate evaluations in "
            << result.seconds << "s\n";

  // 4. Verify by simulation (post-processing, as the paper does).
  queueing::SimConfig ref;
  double max_ia = 0.0;
  for (const auto& chain : system.chains) {
    max_ia = std::max(max_ia, 1.0 / chain.arrival_rate);
  }
  ref.horizon = 2000.0 * max_ia;
  const double x0 = optim::simulated_total_throughput(system, initial, ref);
  const double x1 =
      optim::simulated_total_throughput(system, result.best, ref);
  std::cout << "loss probability: initial "
            << optim::loss_probability(system, x0) << " -> optimized "
            << optim::loss_probability(system, x1)
            << " (relative loss reduction "
            << optim::relative_loss_reduction(system, x0, x1) << ")\n";
  return 0;
}
