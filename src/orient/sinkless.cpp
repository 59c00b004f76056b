#include "orient/sinkless.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "local/network.hpp"
#include "support/check.hpp"

namespace ds::orient {

bool is_sinkless(const graph::Graph& g, const std::vector<bool>& toward_v,
                 std::size_t min_degree) {
  DS_CHECK(toward_v.size() == g.num_edges());
  // Count out-degrees in one pass over the edges.
  std::vector<std::size_t> out(g.num_nodes(), 0);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edges()[e];
    if (toward_v[e]) {
      ++out[ed.u];
    } else {
      ++out[ed.v];
    }
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) >= min_degree && g.degree(v) > 0 && out[v] == 0) {
      return false;
    }
  }
  return true;
}

std::vector<bool> sinkless_random_fix(const graph::Graph& g, Rng& rng,
                                      local::CostMeter* meter,
                                      std::size_t max_rounds) {
  // Per-node incident edge index lists for O(deg) flips.
  std::vector<std::vector<std::size_t>> incident(g.num_nodes());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    incident[g.edges()[e].u].push_back(e);
    incident[g.edges()[e].v].push_back(e);
  }
  std::vector<bool> toward_v(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    toward_v[e] = rng.next_bool();
  }
  std::size_t rounds = 0;
  for (;;) {
    // Identify all sinks (among nodes with at least one edge).
    std::vector<graph::NodeId> sinks;
    std::vector<std::size_t> out(g.num_nodes(), 0);
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const graph::Edge& ed = g.edges()[e];
      if (toward_v[e]) {
        ++out[ed.u];
      } else {
        ++out[ed.v];
      }
    }
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.degree(v) > 0 && out[v] == 0) sinks.push_back(v);
    }
    if (sinks.empty()) break;
    DS_CHECK_MSG(rounds < max_rounds,
                 "sinkless_random_fix did not converge (degree too small?)");
    // All sinks simultaneously flip one random incident edge outward.
    for (graph::NodeId v : sinks) {
      const std::size_t e = incident[v][rng.next_index(incident[v].size())];
      toward_v[e] = (g.edges()[e].u == v);
    }
    ++rounds;
  }
  if (meter != nullptr) meter->add_executed(rounds + 1);  // +1 for the coin round
  return toward_v;
}

namespace {

/// Message-passing sink-fixing program. Round 0 exchanges per-port random
/// draws; the edge points toward the endpoint with the lexicographically
/// larger (draw, uid), computed consistently at both ends. From round 1 on,
/// a constrained sink flips one random incident edge outward and announces
/// it; a sink's neighbors are never sinks themselves, so no two endpoints
/// flip the same edge in one round. Each program halts at the fixed round
/// budget (global termination is not locally detectable).
class SinkFixProgram final : public local::NodeProgram {
 public:
  SinkFixProgram(const local::NodeEnv& env, std::size_t min_degree,
                 std::size_t budget)
      : env_(env),
        constrained_(env.degree >= min_degree && env.degree > 0),
        budget_(budget),
        out_(env.degree, false),
        draws_(env.degree, 0) {}

  void send(std::size_t round, local::Outbox& out) override {
    if (round == 0) {
      // Per-port messages of different content: written port by port.
      for (std::size_t p = 0; p < env_.degree; ++p) {
        draws_[p] = env_.rng.next_raw();
        out.write(p, {draws_[p], env_.uid});
      }
      return;
    }
    if (constrained_ && is_sink()) {
      const std::size_t p = env_.rng.next_index(env_.degree);
      out_[p] = true;
      out.write(p, {1ull});  // single-port write; all other ports silent
    }
  }

  void receive(std::size_t round, const local::Inbox& inbox) override {
    if (round == 0) {
      for (std::size_t p = 0; p < env_.degree; ++p) {
        const local::MessageView msg = inbox[p];
        DS_CHECK(msg.size() == 2);
        out_[p] = std::make_pair(draws_[p], env_.uid) >
                  std::make_pair(msg[0], msg[1]);
      }
    } else {
      for (std::size_t p = 0; p < env_.degree; ++p) {
        const local::MessageView msg = inbox[p];
        if (!msg.empty() && msg[0] == 1) {
          out_[p] = false;  // the neighbor flipped this edge outward
        }
      }
    }
    if (round + 1 >= budget_) halted_ = true;
  }

  [[nodiscard]] bool done() const override {
    return halted_ || env_.degree == 0;
  }
  [[nodiscard]] std::size_t degree() const { return env_.degree; }
  [[nodiscard]] bool out_on_port(std::size_t p) const { return out_[p]; }

 private:
  [[nodiscard]] bool is_sink() const {
    return std::find(out_.begin(), out_.end(), true) == out_.end();
  }

  local::NodeEnv env_;
  bool constrained_;
  std::size_t budget_;
  std::vector<bool> out_;
  std::vector<std::uint64_t> draws_;
  bool halted_ = false;
};

}  // namespace

SinklessOutcome sinkless_program(const graph::Graph& g, std::uint64_t seed,
                                 std::size_t min_degree,
                                 local::CostMeter* meter,
                                 std::size_t max_trials,
                                 const local::ExecutorFactory& executor) {
  // Port of each edge at its lower endpoint, for output extraction: the
  // adjacency lists grow in edge-insertion order, so walk the edges once.
  std::vector<std::size_t> port_at_u(g.num_edges());
  {
    std::vector<std::size_t> cursor(g.num_nodes(), 0);
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const graph::Edge& ed = g.edges()[e];
      port_at_u[e] = cursor[ed.u]++;
      ++cursor[ed.v];
    }
  }
  const std::size_t budget =
      4 * static_cast<std::size_t>(std::ceil(
              std::log2(static_cast<double>(g.num_nodes()) + 2.0))) +
      16;
  SinklessOutcome outcome;
  // One executor for every Las Vegas trial: trial t redraws the coins with
  // seed + t on the same network. Per-node output row: the final per-port
  // orientation bits, gathered through the executor (works across a TCP
  // fleet's processes too).
  const auto net = local::make_executor(executor, g);
  net->set_output_fn([](graph::NodeId, const local::NodeProgram& p,
                        std::vector<std::uint64_t>& out) {
    const auto& prog = static_cast<const SinkFixProgram&>(p);
    for (std::size_t port = 0; port < prog.degree(); ++port) {
      out.push_back(prog.out_on_port(port) ? 1 : 0);
    }
  });
  for (std::size_t trial = 0; trial < max_trials; ++trial) {
    outcome.executed_rounds += net->run(
        [min_degree, budget](const local::NodeEnv& env) {
          return std::make_unique<SinkFixProgram>(env, min_degree, budget);
        },
        local::IdStrategy::kSequential, seed + trial, budget + 2, meter);
    outcome.trials = trial + 1;
    outcome.toward_v.resize(g.num_edges());
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const graph::Edge& ed = g.edges()[e];
      outcome.toward_v[e] = net->outputs().row(ed.u)[port_at_u[e]] != 0;
    }
    if (is_sinkless(g, outcome.toward_v, min_degree)) return outcome;
  }
  DS_CHECK_MSG(false, "sinkless_program: all Las Vegas trials failed "
                      "(degree too small for the round budget?)");
  return outcome;  // unreachable
}

}  // namespace ds::orient
