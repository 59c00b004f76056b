#pragma once

/// \file rendezvous.hpp
/// Bootstrap of a TCP rank fleet: digest computation, the kHello/kWelcome
/// handshake, and the deadlock-free pair-connection mesh.
///
/// Every rank listens on its hosts-file port. Rank 0 is the rendezvous
/// point: ranks 1..N-1 connect to it and send a kHello carrying their rank,
/// fleet size, protocol version, and the two instance digests
/// (`InstanceDigests`, computed once per transport from the launch); rank
/// 0 verifies all of them against its own and answers kWelcome — or a
/// kAbort naming the mismatch, so a launch where the ranks disagree about
/// the instance, seed, ID strategy or partition fails fast instead of
/// diverging silently. After its welcome, each peer dials the remaining
/// pairs directly (rank a connects to rank b for 0 < a < b, each rank
/// accepting its lower peers before dialing its higher ones — a total
/// order, so the mesh build cannot deadlock), repeating the same handshake
/// per pair; a dialed rank that has not bound its listener yet (launch
/// order is arbitrary, and rank 0 welcomes peers one by one) is covered by
/// `connect_to`'s retry-until-deadline loop. The rendezvous connections
/// themselves are kept as the (0, r) pair connections.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "net/socket.hpp"

namespace ds::net {

/// The identity a rank asserts in its kHello.
struct Handshake {
  std::uint64_t version = 0;
  std::uint64_t rank = 0;
  std::uint64_t ranks = 0;
  std::uint64_t topology_digest = 0;
  std::uint64_t partition_digest = 0;
};

/// FNV-1a digest over an instance's structure: n, the left-side count
/// `nu` of a bipartite instance (0 for none) and every adjacency row.
/// Seed- and algorithm-independent: a serve fleet handshakes it in both
/// slots, since rank 0 dispatches each run's seed and parameters.
std::uint64_t structure_digest(const graph::Graph& g, std::size_t nu);

/// The handshake digest of a one-shot launch: the `structure_digest`, the
/// run seed and the `ids` parameter ("" for specs without one) — what the
/// ranks' UIDs and coins derive from, so ranks launched with different
/// seeds or ID strategies fail the rendezvous instead of diverging.
std::uint64_t launch_digest(std::uint64_t structure, std::uint64_t seed,
                            const std::string& ids);

/// FNV-1a digest over a partition: the rank count and the range boundary
/// list (`bounds` has ranks + 1 entries) — the in-situ path's partition
/// slot, derived from (n, ranks) before any rank holds a partition.
std::uint64_t partition_digest(std::size_t ranks,
                               const std::vector<graph::NodeId>& bounds);

/// FNV-1a digest over an instance identity string. The in-situ path uses
/// the generator spec's canonical form plus seed and algorithm as the
/// topology digest — the instance identity without materializing it.
std::uint64_t instance_digest(const std::string& identity);

/// This rank's estimated clock relation to rank 0, measured from the
/// hello/welcome round-trip of the rendezvous connection to rank 0: the
/// welcome carries rank 0's steady-clock time, and the NTP-style midpoint
/// estimate `offset_us = remote_now - (t_send + t_recv) / 2` is accurate to
/// ±RTT/2. Adding `offset_us` to a local steady-clock µs reading maps it
/// onto rank 0's clock — the merged-trace lane alignment (recorder.hpp).
struct ClockSync {
  bool valid = false;
  std::int64_t offset_us = 0;  ///< 0 on rank 0 by definition
};

/// Builds the full pair-connection mesh for `mine.rank`. `hosts` is the
/// rank-ordered endpoint list; `listen` must already be bound to
/// `hosts[rank]` (pass a pre-bound socket, e.g. from the loopback helper).
/// Returns one connected socket per peer, indexed by rank (the own slot is
/// invalid). All sockets are left in blocking mode; the caller sets
/// nonblocking/nodelay as needed. `clock`, when non-null, receives the
/// rank-0 clock estimate (exact zero on rank 0 itself). Throws
/// ds::CheckError on timeout, version or digest mismatch, or a peer abort.
std::vector<Socket> rendezvous(const Handshake& mine,
                               const std::vector<Endpoint>& hosts,
                               Socket& listen, int timeout_ms,
                               ClockSync* clock = nullptr);

}  // namespace ds::net
