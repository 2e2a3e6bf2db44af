// Reproduces Fig. 14 (and Table VII inputs):
//   (a) five independent SA trial trajectories on one problem (surrogate);
//   (b) mean relative loss reduction of ChainNet-based vs simulation-based
//       search under a fixed wall-clock budget (the fixed-steps group is
//       produced by bench_fig15_fixedsteps);
//   (c)-(d) mean loss probability / relative loss reduction over the fixed
//       time frame, with the ChainNet curve shown both as estimated by the
//       surrogate (dashed in the paper) and re-simulated (solid).
//
// Fixed-time protocol (§VIII-C4a): the budget is the duration of ONE
// simulation-based trial; ChainNet restarts trials until the budget is
// exhausted; both methods' final decisions are re-scored by a reference
// simulation.
#include <iostream>
#include <vector>

#include "search_common.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

int main() {
  using namespace chainnet;
  bench::print_header("Fig. 14: fixed-time surrogate optimization");
  const auto& sc = bench::scale();

  support::Table params({"parameter", "value"});
  params.add_row({"# available devices", "20, 40, 80, 120 (cycled)"});
  params.add_row({"# service chains", "12"});
  params.add_row({"max # fragments per chain", "12"});
  params.add_row({"mean interarrival", "Exp(1), floor 0.01"});
  params.add_row({"device service rate", "U(0.5, 1)"});
  params.add_row({"memory capacity", "100"});
  params.add_row({"fragment compute demand", "U(0.01, 0.1)"});
  params.print(std::cout, "Table VII: placement problem generation");

  // The search surrogate is trained on the mixed in-domain set (see
  // common.h search_train_set) — a documented small-scale substitution.
  auto& chainnet_model = bench::model("chainnet_search");
  core::Surrogate surrogate(chainnet_model);

  support::Rng master(20240613);
  const int num_problems = sc.fixed_time_problems;

  // Common relative-time grid for the mean curves (fractions of budget).
  const std::vector<double> grid_fracs = {0.0, 0.05, 0.1, 0.2, 0.35,
                                          0.5,  0.7,  0.85, 1.0};
  std::vector<support::RunningStats> sim_loss(grid_fracs.size());
  std::vector<support::RunningStats> cn_loss_est(grid_fracs.size());
  std::vector<support::RunningStats> cn_loss_sim(grid_fracs.size());
  std::vector<support::RunningStats> sim_eta(grid_fracs.size());
  std::vector<support::RunningStats> cn_eta(grid_fracs.size());
  support::RunningStats final_eta_sim, final_eta_cn, budgets;

  for (int p = 0; p < num_problems; ++p) {
    const auto sys = edge::generate_placement_problem(
        edge::PlacementProblemParams::paper(
            bench::device_count_for_problem(p)),
        master);
    const auto initial = optim::initial_placement(sys);
    const auto ref_cfg = bench::reference_sim_config(sys, 555 + p);
    const double x0 =
        optim::simulated_total_throughput(sys, initial, ref_cfg);
    const double lambda_total = sys.total_arrival_rate();

    optim::SaConfig sa;
    sa.max_steps = sc.sa_steps;
    sa.seed = 42 + static_cast<std::uint64_t>(p);
    sa.record_best_placements = true;

    // Baseline: one simulation-driven trial; its duration is the budget.
    optim::SimulationEvaluator sim_eval(
        bench::search_sim_config(sys, 77 + p));
    search::SaOptimizer sim_opt(sim_eval, sa);
    const auto sim_result = sim_opt.run(sys, initial, sa.seed);
    const double budget = sim_result.seconds;
    budgets.add(budget);

    // ChainNet: as many trials as fit in the same wall-clock budget.
    optim::SurrogateEvaluator cn_eval(surrogate);
    search::SaOptimizer cn_opt(cn_eval, sa);
    const auto cn_result =
        search::run_for(cn_opt, sys, initial, sa.seed, budget);

    // Post-processing: reference-simulate final decisions.
    const double x_sim =
        optim::simulated_total_throughput(sys, sim_result.best, ref_cfg);
    const double x_cn =
        optim::simulated_total_throughput(sys, cn_result.best, ref_cfg);
    final_eta_sim.add(optim::relative_loss_reduction(sys, x0, x_sim));
    final_eta_cn.add(optim::relative_loss_reduction(sys, x0, x_cn));

    // Curves: sample best-so-far at grid times. The simulation method's
    // trajectory values are already simulated estimates; the ChainNet
    // trajectory is surrogate-estimated, so each grid decision is also
    // re-simulated (cheap effort) for the solid curve.
    const auto cheap_cfg = bench::search_sim_config(sys, 99 + p);
    for (std::size_t gi = 0; gi < grid_fracs.size(); ++gi) {
      const double t = grid_fracs[gi] * budget;
      const auto sim_best = optim::best_at_times(sim_result.trajectory, {t});
      sim_loss[gi].add(optim::loss_probability(sys, sim_best[0]));
      sim_eta[gi].add(
          optim::relative_loss_reduction(sys, x0, sim_best[0]));
      const auto cn_best = optim::best_at_times(cn_result.trajectory, {t});
      cn_loss_est[gi].add(optim::loss_probability(sys, cn_best[0]));
      const auto& placement = bench::placement_at_time(cn_result, t);
      const double x_grid =
          optim::simulated_total_throughput(sys, placement, cheap_cfg);
      cn_loss_sim[gi].add(optim::loss_probability(sys, x_grid));
      cn_eta[gi].add(optim::relative_loss_reduction(sys, x0, x_grid));
    }

    std::cout << "problem " << p << ": devices="
              << bench::device_count_for_problem(p)
              << " lambda_total=" << support::Table::num(lambda_total, 2)
              << " budget=" << support::Table::num(budget, 2) << "s"
              << " | sim trials=1 evals=" << sim_result.evaluations
              << " | chainnet trials=" << cn_result.trials
              << " evals=" << cn_result.evaluations << "\n";
  }

  // Fig. 14a: five trial trajectories on a fresh problem (surrogate-driven,
  // like the paper's example run).
  {
    const auto sys = edge::generate_placement_problem(
        edge::PlacementProblemParams::paper(40), master);
    const auto initial = optim::initial_placement(sys);
    support::Table fig14a({"step", "trial1", "trial2", "trial3", "trial4",
                           "trial5"});
    std::vector<optim::SaResult> trials;
    for (int t = 0; t < 5; ++t) {
      optim::SurrogateEvaluator eval(surrogate);
      optim::SaConfig sa;
      sa.max_steps = sc.sa_steps;
      search::SaOptimizer opt(eval, sa);
      trials.push_back(
          opt.run(sys, initial, 1000 + static_cast<std::uint64_t>(t)));
    }
    for (int s = 0; s <= sc.sa_steps; s += std::max(1, sc.sa_steps / 10)) {
      std::vector<std::string> row = {std::to_string(s)};
      for (const auto& trial : trials) {
        const auto best = optim::best_at_steps(trial.trajectory, {s});
        row.push_back(support::Table::num(
            optim::loss_probability(sys, best[0]), 3));
      }
      fig14a.add_row(row);
    }
    fig14a.print(std::cout,
                 "Fig. 14a: estimated loss probability, 5 trials");
  }

  // Fig. 14b (fixed-time group).
  support::Table fig14b({"method", "mean relative loss reduction"});
  fig14b.add_row({"simulation-based (1 trial budget)",
                  support::Table::num(final_eta_sim.mean(), 3)});
  fig14b.add_row({"ChainNet-based (same budget)",
                  support::Table::num(final_eta_cn.mean(), 3)});
  fig14b.print(std::cout,
               "Fig. 14b fixed-time (paper: 20.5% sim vs 37.6% ChainNet, "
               "+83.4%)");
  if (final_eta_sim.mean() > 0.0) {
    std::cout << "improvement over simulation-based search: "
              << support::Table::num(
                     100.0 * (final_eta_cn.mean() / final_eta_sim.mean() -
                              1.0),
                     1)
              << "% (paper: 83.4%)\n";
  }

  // Fig. 14c-d: mean curves over the budget fraction.
  support::Table curves({"t/budget", "sim loss", "CN loss (est)",
                         "CN loss (sim)", "sim eta", "CN eta (sim)"});
  support::CsvWriter csv(bench::cache_dir() + "/fig14cd_curves.csv",
                         {"frac", "sim_loss", "cn_loss_est", "cn_loss_sim",
                          "sim_eta", "cn_eta"});
  for (std::size_t gi = 0; gi < grid_fracs.size(); ++gi) {
    curves.add_row({support::Table::num(grid_fracs[gi], 2),
                    support::Table::num(sim_loss[gi].mean(), 3),
                    support::Table::num(cn_loss_est[gi].mean(), 3),
                    support::Table::num(cn_loss_sim[gi].mean(), 3),
                    support::Table::num(sim_eta[gi].mean(), 3),
                    support::Table::num(cn_eta[gi].mean(), 3)});
    csv.row({grid_fracs[gi], sim_loss[gi].mean(), cn_loss_est[gi].mean(),
             cn_loss_sim[gi].mean(), sim_eta[gi].mean(),
             cn_eta[gi].mean()});
  }
  curves.print(std::cout, "Fig. 14c-d: mean curves over the time budget");
  std::cout << "\nShape check: the ChainNet curve should drop steeply early "
               "(many trials in the\nbudget) and dominate the simulation "
               "curve throughout; mean budget was "
            << support::Table::num(budgets.mean(), 2) << "s per problem.\n";
  return 0;
}
