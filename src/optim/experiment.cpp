#include "optim/experiment.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "edge/qn_mapping.h"

namespace chainnet::optim {

double loss_probability(const edge::EdgeSystem& system,
                        double total_throughput) {
  const double lambda_total = system.total_arrival_rate();
  if (lambda_total <= 0.0) return 0.0;
  return std::clamp((lambda_total - total_throughput) / lambda_total, 0.0,
                    1.0);
}

double relative_loss_reduction(const edge::EdgeSystem& system,
                               double initial_throughput,
                               double optimized_throughput) {
  // From the clamped pi_loss values, so a reference simulation that reads
  // above Lambda cannot push eta past 1.
  const double initial_loss = loss_probability(system, initial_throughput);
  if (initial_loss <= 0.0) return 0.0;  // initial placement already lossless
  return (initial_loss - loss_probability(system, optimized_throughput)) /
         initial_loss;
}

double simulated_total_throughput(const edge::EdgeSystem& system,
                                  const edge::Placement& placement,
                                  const queueing::SimConfig& config) {
  const auto qn = edge::build_qn(system, placement);
  return queueing::simulate(qn, config).total_throughput();
}

std::vector<double> best_at_times(const std::vector<TrajectoryPoint>& traj,
                                  const std::vector<double>& times) {
  if (traj.empty()) throw std::invalid_argument("best_at_times: empty");
  std::vector<double> out;
  out.reserve(times.size());
  std::size_t idx = 0;
  double last = traj.front().best;
  for (double t : times) {
    while (idx < traj.size() && traj[idx].seconds <= t) {
      last = traj[idx].best;
      ++idx;
    }
    out.push_back(last);
  }
  return out;
}

std::vector<double> best_at_steps(const std::vector<TrajectoryPoint>& traj,
                                  const std::vector<int>& steps) {
  if (traj.empty()) throw std::invalid_argument("best_at_steps: empty");
  std::vector<double> out;
  out.reserve(steps.size());
  std::size_t idx = 0;
  double last = traj.front().best;
  for (int s : steps) {
    while (idx < traj.size() && traj[idx].step <= s) {
      last = traj[idx].best;
      ++idx;
    }
    out.push_back(last);
  }
  return out;
}

std::string search_diagnostics(const SaResult& result) {
  const SearchCounters& c = result.counters;
  std::ostringstream out;
  out.precision(3);
  out << "accepted " << c.accepts << "/" << c.proposals << " proposals ("
      << c.acceptance_rate() * 100.0 << "%";
  if (c.proposal_failures > 0) {
    out << ", " << c.proposal_failures << " infeasible";
  }
  out << ")";
  if (c.exchange_attempts > 0) {
    out << "; exchanged " << c.exchange_accepts << "/" << c.exchange_attempts
        << " replica pairs (" << c.exchange_rate() * 100.0 << "%)";
  }
  if (c.resample_events > 0) {
    out << "; " << c.resample_events << " resamples replaced "
        << c.resampled_replicas << " replicas";
  }
  return out.str();
}

}  // namespace chainnet::optim
