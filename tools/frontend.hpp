#pragma once

/// \file frontend.hpp
/// The front end shared by the three tools (`distsplit_cli`,
/// `distsplit_rank`, `distsplit_serve`): the flag check, the instance
/// source, the observability session and the fleet launch, each written
/// once. Every function reports bad input as a ds::CheckError naming the
/// flag.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algo/spec.hpp"
#include "graph/bipartite.hpp"
#include "graph/graph.hpp"
#include "net/loopback.hpp"
#include "net/socket.hpp"
#include "obs/http_server.hpp"
#include "obs/profile.hpp"
#include "obs/publish.hpp"
#include "obs/recorder.hpp"
#include "support/options.hpp"

namespace ds::frontend {

// ---------------------------------------------------------------- flags --

/// Where flags outside a tool's own set belong: `check_flags`' default note.
inline constexpr const char* kParamsNote =
    "(algorithm parameters go through --param=key=value)";

/// Throws on the first flag outside `allowed`, with a did-you-mean hint
/// and `note` (where everything else belongs) appended. `retired` maps a
/// removed flag to the allowed one that replaces it: the hint spelling
/// distance cannot find.
void check_flags(const Options& opts, const std::vector<std::string>& allowed,
                 const std::string& note = kParamsNote,
                 const std::map<std::string, std::string>& retired = {});

/// `--key=P` as a port (0 when absent; 0 asks the kernel for one). Rank r
/// of a fleet binds P + r, so P + `max_rank` must stay <= 65535.
std::uint16_t port_flag(const Options& opts, const std::string& key,
                        std::size_t max_rank = 0);

/// `--key=N` as a capacity, N >= 1; `fallback` when absent.
std::size_t capacity_flag(const Options& opts, const std::string& key,
                          std::size_t fallback);

// ------------------------------------------------------- instance source --

/// Which flag names the instance.
enum class Source {
  kInput,  ///< --input=FILE: a text edge list
  kGraph,  ///< --graph=FILE.dsg: a packed file, mapped read-only
  kGen,    ///< --gen=SPEC: a generator instance, seeded by --seed
};

/// The one source flag given; throws when there are zero or several.
Source instance_source(const Options& opts);

/// A materialized instance.
struct Instance {
  graph::Graph graph;               ///< general-input form
  graph::BipartiteGraph bipartite;  ///< bipartite-input form
  /// Left-side size of a `.dsg` or generator source's split; 0 = none.
  std::size_t nu = 0;
};

/// Loads the instance named by `instance_source(opts)` in the form `input`
/// asks for. A bipartite `--input` file is read as such; a `.dsg` or
/// generator source is split at its left-side size, and one without a
/// split fails with "`who` needs a bipartite instance, …". A `.dsg` file
/// passes `graph::check_dsg_structure` (O(n + m)) or throws FormatError.
Instance load_instance(const Options& opts, algo::InputKind input,
                       const std::string& who);

// ------------------------------------------------- observability session --

/// The observability flags, read and range-checked up front so a bad value
/// fails before anything forks or binds. --metrics writes the counter and
/// histogram snapshot as JSON, --trace a Chrome trace (Perfetto), --profile
/// the sampled flame-graph profile as folded stacks (every rank samples;
/// stacks are prefixed `rank:R`), --stats prints a summary table. On a
/// fleet every rank merges the other ranks' blocks of the run, so each
/// holds fleet totals, and rank 0 writes.
/// --http-port=P serves /metrics /status /healthz /api/v1/snapshot
/// /api/v1/runs (and /api/v1/profile) while the run is in flight, rank r
/// on P + r (P = 0: kernel-assigned ports, printed at startup).
/// --event-cap=N bounds the trace flight recorder. Any of them records
/// the run.
struct ObsFlags {
  ObsFlags() = default;
  /// `max_rank` is the highest rank this process runs (bounds P + rank).
  ObsFlags(const Options& opts, std::size_t max_rank);

  std::string metrics;  ///< output paths, "" = not written
  std::string trace;
  std::string profile;
  bool stats = false;
  /// Base port P of the live endpoints (0 = kernel-assigned); unset = off.
  std::optional<std::uint16_t> http_port;
  std::size_t event_cap = obs::Recorder::kDefaultEventCapacity;

  /// Any of the flags asks for a recorded run.
  [[nodiscard]] bool observe() const {
    return !metrics.empty() || !trace.empty() || !profile.empty() || stats ||
           http_port.has_value();
  }
};

/// Key/value labels of a run: the live /status page and the metrics file.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One rank's observability for one run: a recorder on lane `rank` (when
/// observing), the --profile sampler, and the --http-port publisher and
/// server on port P + rank. `finish` writes rank 0's files. Not copyable:
/// the recorder and the server thread hold its members' addresses.
class ObsSession {
 public:
  /// Prints "`prefix`http: listening on port …" when serving; `labels`
  /// (plus the build provenance) describe the run.
  ObsSession(const ObsFlags& flags, std::size_t rank, std::string prefix,
             Labels labels);
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The run's recorder; null when not observing.
  [[nodiscard]] obs::Recorder* recorder() {
    return flags_.observe() ? &recorder_ : nullptr;
  }
  /// The live publisher; null without --http-port.
  [[nodiscard]] obs::SnapshotPublisher* publisher() {
    return flags_.http_port ? &publisher_ : nullptr;
  }

  /// Runs `body` between run started and run finished on the publisher,
  /// so /healthz answers 503 once it throws.
  void run(const std::string& name, const std::function<void()>& body);

  /// Stops the profiler. On rank 0, writes the --metrics/--trace/--profile
  /// files and prints the --stats table.
  void finish();

 private:
  ObsFlags flags_;
  std::size_t rank_;
  std::string prefix_;
  Labels labels_;
  obs::Recorder recorder_;
  std::unique_ptr<obs::SampledProfiler> profiler_;
  // Declared before the server: the server (a reader) is torn down first.
  obs::SnapshotPublisher publisher_;
  std::unique_ptr<obs::HttpServer> http_;
};

// ---------------------------------------------------------- fleet launch --

/// How this process joins a TCP fleet: --local=N forks a whole loopback
/// fleet on 127.0.0.1; --hosts=FILE --rank=R runs one rank of a
/// multi-host fleet.
struct Fleet {
  std::size_t local = 0;             ///< N of --local=N; 0 = --hosts mode
  std::vector<net::Endpoint> hosts;  ///< --hosts mode: the address book
  std::size_t rank = 0;              ///< --hosts mode: this process's rank

  /// The highest rank this process runs.
  [[nodiscard]] std::size_t max_rank() const {
    return local > 0 ? local - 1 : rank;
  }
};

/// The launch flags; nullopt when neither --local nor --hosts is given.
std::optional<Fleet> fleet_from_options(const Options& opts);

/// Runs `body` as the one --hosts rank, or as all N loopback ranks (rank 0
/// in this process, the others forked), and returns the exit code: the
/// --hosts rank's own; for a loopback fleet 0 when every rank returned 0,
/// else 2 after an "error: a rank failed (rank 0 -> c0, rank 1 -> c1, …)"
/// report on stderr.
int launch(const Fleet& fleet,
           const std::function<int(net::LoopbackRank&&)>& body);

}  // namespace ds::frontend
