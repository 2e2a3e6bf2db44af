// Capacity planning with the queueing substrate: for a fixed portfolio of
// AI services, sweep the device-fleet size and report the achievable loss
// probability, answering "how many edge devices do we need to keep data
// loss under X%?" — a design question the paper's loss-aware methodology
// enables beyond single-placement optimization.
//
// Usage: ./build/examples/capacity_planning [target_loss]
#include <cstdlib>
#include <iostream>

#include "edge/problem.h"
#include "optim/annealing.h"
#include "optim/evaluator.h"
#include "optim/experiment.h"
#include "optim/initial.h"
#include "search/optimizer.h"
#include "support/rng.h"
#include "support/table.h"

using namespace chainnet;

namespace {

/// A fixed service portfolio: six chains with mixed sizes and loads.
edge::EdgeSystem portfolio_with_devices(int num_devices,
                                        support::Rng& rng) {
  edge::EdgeSystem sys;
  support::Uniform rate(0.5, 1.0);
  for (int k = 0; k < num_devices; ++k) {
    sys.devices.push_back(
        {"dev" + std::to_string(k), 100.0, rate.sample(rng)});
  }
  const struct {
    const char* name;
    double lambda;
    int fragments;
    double work;
  } services[] = {
      {"vision-a", 2.0, 5, 0.20}, {"vision-b", 1.5, 4, 0.15},
      {"nlp-a", 3.0, 3, 0.12},    {"nlp-b", 1.0, 6, 0.18},
      {"audio", 4.0, 2, 0.10},    {"telemetry", 6.0, 2, 0.05},
  };
  for (const auto& svc : services) {
    edge::ServiceChainSpec chain;
    chain.name = svc.name;
    chain.arrival_rate = svc.lambda;
    for (int j = 0; j < svc.fragments; ++j) {
      chain.fragments.push_back({1.0, svc.work});
    }
    sys.chains.push_back(chain);
  }
  return sys;
}

}  // namespace

int main(int argc, char** argv) {
  const double target_loss = argc > 1 ? std::atof(argv[1]) : 0.05;
  std::cout << "target loss probability: " << target_loss << "\n";

  support::Table table({"devices", "initial loss", "optimized loss",
                        "meets target"});
  int recommended = -1;
  for (const int d : {8, 10, 14, 20, 28}) {
    support::Rng rng(99);  // same rates across sweep points
    const auto sys = portfolio_with_devices(d, rng);
    const auto initial = optim::initial_placement(sys);

    queueing::SimConfig eval_cfg;
    eval_cfg.horizon = 400.0;
    optim::SimulationEvaluator evaluator(eval_cfg);
    optim::SaConfig sa;
    sa.max_steps = 60;
    search::SaOptimizer optimizer(evaluator, sa);
    const auto result =
        search::run_trials(optimizer, sys, initial, sa.seed, 2);

    queueing::SimConfig ref;
    ref.horizon = 4000.0;
    const double x0 = optim::simulated_total_throughput(sys, initial, ref);
    const double x1 =
        optim::simulated_total_throughput(sys, result.best, ref);
    const double loss0 = optim::loss_probability(sys, x0);
    const double loss1 = optim::loss_probability(sys, x1);
    const bool ok = loss1 <= target_loss;
    if (ok && recommended < 0) recommended = d;
    table.add_row({std::to_string(d), support::Table::num(loss0, 3),
                   support::Table::num(loss1, 3), ok ? "yes" : "no"});
  }
  table.print(std::cout, "Fleet-size sweep");
  if (recommended > 0) {
    std::cout << "\nsmallest fleet meeting the target: " << recommended
              << " devices\n";
  } else {
    std::cout << "\nno swept fleet size meets the target; add devices or "
                 "reduce load\n";
  }
  return 0;
}
