// E5 — Lemma 2.9 + Theorem 2.8: the shattering phase.
//
// (a) Monte-Carlo estimate of Pr[u unsatisfied] against the e^{-ηΔ} bound of
//     Lemma 2.9 — the measured rate must decay at least geometrically in Δ
//     and stay below the analytic bound.
// (b) Residual component sizes after shattering, which Theorem 2.8 bounds
//     by poly(r)·polylog(n). That shrinking is asymptotic: the shattering
//     path runs only while δ ≤ 2 log n, and at the sizes run here (δ = 16)
//     the residual percolates into one or two components, so largest/n is
//     flat in n (≈0.17 in expectation) and its trend across sizes follows
//     the seed. The check is a ceiling that holds at every n with wide
//     margin: the largest residual component is at most half the graph.
//     A shattering phase that shatters nothing leaves every left node
//     unsatisfied and reads about 1.

#include <algorithm>
#include <iostream>
#include <memory>

#include "graph/generators.hpp"
#include "local/executor.hpp"
#include "local/network.hpp"
#include "local/round_stats.hpp"
#include "runtime/select.hpp"
#include "splitting/shattering.hpp"
#include "support/options.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace ds;

namespace {

/// The shattering phase as a genuine LOCAL message-passing program on the
/// unified bipartite graph (3 rounds): right nodes draw and broadcast a
/// color (red 1/4, blue 1/4, uncolored 1/2); left nodes seeing > 3/4
/// colored neighbors broadcast an uncolor command; right nodes rebroadcast
/// their final color, from which left nodes derive their (un)satisfaction.
/// Run through a `local::Executor` so the per-round `local::RoundStats`
/// trace of the phase appears in the experiment table.
class ShatterProgram final : public local::NodeProgram {
 public:
  ShatterProgram(const local::NodeEnv& env, bool is_left)
      : env_(env), is_left_(is_left) {}

  void send(std::size_t round, local::Outbox& out) override {
    if (round == 0 && !is_left_) {
      const double roll = env_.rng.next_double();
      color_ = roll < 0.25 ? 1 : (roll < 0.5 ? 2 : 0);
      out.broadcast({color_});
    } else if (round == 1 && is_left_) {
      out.broadcast({uncolor_all_ ? 1ull : 0ull});
    } else if (round == 2 && !is_left_) {
      out.broadcast({color_});
    }
  }

  void receive(std::size_t round, const local::Inbox& inbox) override {
    if (round == 0 && is_left_) {
      std::size_t colored = 0;
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        if (!inbox[p].empty() && inbox[p][0] != 0) ++colored;
      }
      uncolor_all_ = 4 * colored > 3 * env_.degree;
    } else if (round == 1 && !is_left_) {
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        if (!inbox[p].empty() && inbox[p][0] == 1) {
          color_ = 0;  // some incident left node uncolored us
          break;
        }
      }
    } else if (round == 2 && is_left_) {
      bool red = false;
      bool blue = false;
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        if (inbox[p].empty()) continue;
        red = red || inbox[p][0] == 1;
        blue = blue || inbox[p][0] == 2;
      }
      unsatisfied_ = !(red && blue);
    }
    if (round >= 2) halted_ = true;
  }

  [[nodiscard]] bool done() const override {
    return halted_ || env_.degree == 0;
  }
  [[nodiscard]] bool unsatisfied() const { return unsatisfied_; }

 private:
  local::NodeEnv env_;
  bool is_left_;
  std::uint64_t color_ = 0;
  bool uncolor_all_ = false;
  bool unsatisfied_ = false;
  bool halted_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  Rng rng(opts.seed());
  const int trials = static_cast<int>(opts.get_int("trials", 8));
  const auto runtime_config = runtime::runtime_from_options(opts);
  bool ok = true;

  std::cout << "E5 — Lemma 2.9 / Theorem 2.8: shattering\n";
  {
    Table table({"delta", "measured Pr[unsat]", "paper bound e^{-eta*D}",
                 "below bound"});
    double previous_rate = 1.0;
    for (std::size_t delta : {8, 16, 24, 32, 48}) {
      const auto b = graph::gen::random_biregular(512, 1024, delta, rng);
      std::size_t unsat = 0;
      std::size_t total = 0;
      for (int t = 0; t < trials; ++t) {
        const auto outcome = splitting::shattering_phase(b, rng);
        unsat += static_cast<std::size_t>(std::count(
            outcome.unsatisfied.begin(), outcome.unsatisfied.end(), true));
        total += b.num_left();
      }
      const double rate = static_cast<double>(unsat) / total;
      const double bound =
          splitting::shattering_unsatisfied_bound(delta, b.rank());
      const bool below = rate <= std::min(1.0, bound) + 0.02;
      ok = ok && below;
      ok = ok && rate <= previous_rate + 0.02;  // decaying in Δ
      previous_rate = rate;
      table.row()
          .num(delta)
          .num(rate, 5)
          .num(std::min(1.0, bound), 5)
          .cell(below ? "yes" : "NO");
    }
    std::cout << "(a) unsatisfied probability vs degree\n";
    table.print(std::cout);
  }
  {
    Table table({"n", "largest comp", "largest/n", "#comps", "resid rank"});
    bool at_most_half = true;
    for (std::size_t scale : {1, 2, 4, 8}) {
      const std::size_t nu = 256 * scale;
      const std::size_t nv = 512 * scale;
      Summary largest;
      Summary comps;
      Summary rrank;
      for (int t = 0; t < trials; ++t) {
        const auto b = graph::gen::random_biregular(nu, nv, 16, rng);
        splitting::ShatteringStats stats;
        splitting::randomized_weak_split(b, rng, nullptr, &stats);
        largest.add(static_cast<double>(stats.largest_component));
        comps.add(static_cast<double>(stats.num_components));
        rrank.add(static_cast<double>(stats.residual_rank));
      }
      const double frac = largest.mean() / static_cast<double>(nu + nv);
      at_most_half = at_most_half && frac <= 0.5;
      table.row()
          .num(nu + nv)
          .num(largest.mean(), 1)
          .num(frac, 4)
          .num(comps.mean(), 1)
          .num(rrank.mean(), 1);
    }
    std::cout << "(b) residual component size vs n (delta = 16)\n";
    table.print(std::cout);
    ok = ok && at_most_half;
  }
  {
    // (c) The same phase as a LOCAL message-passing execution, traced per
    // round through local::RoundStats (--runtime=parallel --threads=N to
    // run it on thread ranks; the trace is bit-identical).
    const std::size_t nu = 512;
    const std::size_t nv = 1024;
    const std::size_t delta = 32;
    const auto b = graph::gen::random_biregular(nu, nv, delta, rng);
    const auto g = b.unified();
    std::vector<local::RoundStats> trace;
    const auto factory = runtime::make_executor_factory(
        runtime_config,
        [&trace](const local::RoundStats& s) { trace.push_back(s); });
    const auto net = local::make_executor(factory, g);
    // Results come back through the executor's output gather, the result
    // channel every executor provides.
    net->set_output_fn([](graph::NodeId, const local::NodeProgram& p,
                          std::vector<std::uint64_t>& out) {
      out.push_back(
          static_cast<const ShatterProgram&>(p).unsatisfied() ? 1 : 0);
    });
    net->run(
        [nu](const local::NodeEnv& env)
            -> std::unique_ptr<local::NodeProgram> {
          return std::make_unique<ShatterProgram>(env, env.node < nu);
        },
        local::IdStrategy::kSequential, opts.seed() + 5, 8);
    std::size_t unsat = 0;
    for (graph::NodeId u = 0; u < nu; ++u) {
      unsat += net->outputs().value(u) != 0 ? 1 : 0;
    }
    const double rate = static_cast<double>(unsat) / static_cast<double>(nu);
    const double bound = splitting::shattering_unsatisfied_bound(
        delta, b.rank());
    ok = ok && trace.size() == 3;  // color, uncolor, announce
    ok = ok && rate <= std::min(1.0, bound) + 0.02;
    std::cout << "(c) message-passing shattering phase, per-round trace ("
              << runtime::runtime_description(runtime_config)
              << "; Pr[unsat] = " << rate << ")\n";
    Table table({"round", "live", "messages", "words", "bytes"});
    for (const local::RoundStats& s : trace) {
      table.row()
          .num(s.round)
          .num(s.live_nodes)
          .num(s.messages)
          .num(s.payload_words)
          .num(8 * s.payload_words);
    }
    table.print(std::cout);
  }
  std::cout << (ok ? "SHAPE CHECK: PASS" : "SHAPE CHECK: FAIL")
            << " (rate below Lemma 2.9 bound and decaying; largest "
            << "residual component at most n/2)\n";
  return ok ? 0 : 1;
}
