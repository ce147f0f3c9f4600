// Chunked dependency DAG over the anti-diagonal levels of a StateSpace,
// used by the bucketed (barrier-free) parallel DP sweep.
//
// Each level l is cut into contiguous rank chunks of a uniform `target`
// size (the last chunk of a level may be shorter). Instead of a global
// barrier between levels, chunk j of level l waits on a *prefix* of the
// level-(l-1) chunks: every unit predecessor u = v - e_k of an entry v in
// chunk j is lexicographically smaller than v, hence smaller than the
// chunk's last entry v_last, so u's rank on level l-1 is below
// H_j = rank_lower_bound(l-1, v_last). Deeper predecessors (|c| >= 2) are
// covered transitively: any v - c is reachable from some unit predecessor
// of v by further unit subtractions, each step staying lexicographically
// below v_last, so induction over levels closes the argument. Waiting on
// the ceil(H_j / target) prefix chunks of level l-1 therefore suffices.
//
// Because H_j is nondecreasing in j, the successor set of a level-(l-1)
// chunk is a *suffix* of level l's chunks, stored as a [succ_begin,
// succ_end) range of global chunk ids — the whole DAG needs no adjacency
// lists, just two offsets per chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/ptas/state_space.hpp"

namespace pcmax {

/// One contiguous rank range of one anti-diagonal level.
struct DpChunk {
  int level = 0;
  std::uint64_t rank_begin = 0;
  std::uint64_t rank_end = 0;
  /// Number of level-(level-1) chunks this chunk waits on — always the
  /// prefix [0, dep_chunks) of the previous level's local chunk list.
  /// Zero exactly for the level-0 root chunk.
  std::uint32_t dep_chunks = 0;
  /// Global id range of the level-(level+1) chunks that wait on this one.
  std::uint32_t succ_begin = 0;
  std::uint32_t succ_end = 0;
};

/// The full chunk DAG: chunks grouped by level, ranks ascending.
struct DpChunkGraph {
  std::vector<DpChunk> chunks;
  /// Size max_level+2: level l owns global chunk ids
  /// [level_first[l], level_first[l+1]).
  std::vector<std::uint32_t> level_first;
  std::size_t target = 0;  ///< uniform chunk size the graph was built with

  /// Sum of dep_chunks over all chunks. Exactly chunks.size()-1 of the
  /// runtime counter decrements reach zero (one per non-root chunk), so a
  /// bucketed sweep on the pool observes
  /// total_dependencies() - (chunks.size()-1) non-final decrements (the
  /// dp.chunk_waits metric) — deterministically.
  [[nodiscard]] std::uint64_t total_dependencies() const;
};

/// Builds the chunk DAG for `space` with uniform chunk size `target` >= 1.
/// Cost: O(#chunks * dims * max_digit) rank computations plus one
/// LevelWalker table build; independent of sigma.
[[nodiscard]] DpChunkGraph build_chunk_graph(const StateSpace& space,
                                             std::size_t target);

}  // namespace pcmax
