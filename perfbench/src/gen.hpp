// Seeded input generators of the benchmark.  They are independent of
// the library's src/gen so that a change there cannot change a
// workload; their output reaches the program only as edge-list files.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/** splitmix64: the benchmark's only random source. */
struct Rng
{
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed) {}
    std::uint64_t next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    double uniform() { return (next() >> 11) * 0x1.0p-53; }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** One generated input as written to disk, with the generator's own
 *  counts: distinct vertex ids and distinct undirected non-loop edges. */
struct GeneratedInput
{
    std::string path;
    std::uint64_t n = 0;
    std::uint64_t m = 0;
};

/**
 * R-MAT (a=0.57, b=c=0.19) with 2^scale ids and edge_factor*2^scale
 * samples; self-loops are dropped, duplicates are kept in the file, and
 * the surviving ids are relabelled by a random bijection and the lines
 * written in sample order, so the file's first-appearance order is
 * scrambled.
 */
EdgeList rmat_edges(int scale, int edge_factor, std::uint64_t seed);

/**
 * Maze lattice: a width x height grid whose edges are a random spanning
 * tree (randomised Kruskal) plus each remaining grid edge with
 * probability extra_p.  Ids are row-major and lines are written in id
 * order, so the natural order is the generated one.
 */
EdgeList maze_edges(std::uint32_t width, std::uint32_t height,
                    double extra_p, std::uint64_t seed);

/**
 * Planted communities: n vertices in blocks of block_size; each vertex
 * draws deg_in partners inside its block and deg_out anywhere.  Ids are
 * scrambled.
 */
EdgeList community_edges(std::uint32_t n, std::uint32_t block_size,
                         int deg_in, int deg_out, std::uint64_t seed);

/**
 * Write @p edges to `<dir>/<name>.edges` unless that file and its
 * `.meta` already exist (the name carries the seed and parameters), and
 * return the path with the counts.
 */
GeneratedInput write_input(const std::string& dir, const std::string& name,
                           const EdgeList& edges);

/** The counts a generated file should load to (distinct ids; distinct
 *  undirected edges without self-loops). */
std::pair<std::uint64_t, std::uint64_t> count_distinct(const EdgeList& e);

/**
 * Read an edge-list file with the benchmark's own parser and relabel
 * ids by first appearance, which is how the program's loader numbers
 * vertices.  Returns the distinct undirected edges (u < v), sorted.
 */
EdgeList read_compacted(const std::string& path, std::uint64_t* n_out);

} // namespace perfbench
