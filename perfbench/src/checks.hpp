// Output checks computed apart from the program: each recomputes a
// result with the benchmark's own code and returns an empty string when
// the program's output agrees, else a one-line reason.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.hpp"
#include "graph/csr.hpp"

namespace perfbench {

using graphorder::Csr;
using Ranks = std::vector<std::uint32_t>;

/** Tolerances of the floating-point checks (stated in the README). */
inline constexpr double kPageRankSumTol = 1e-6;
inline constexpr double kPageRankL1Tol = 1e-5;
inline constexpr double kModularityTol = 1e-9;
/** IMM spread vs Monte-Carlo: relative tolerance, or 4 standard errors
 *  of the Monte-Carlo mean when that is wider. */
inline constexpr double kSpreadRelTol = 0.30;

/** FNV-1a over the rank vector's bytes (the service's perm_fnv). */
std::uint64_t fnv1a_ranks(const Ranks& r);

/** The loaded graph holds exactly @p n vertices and the edges @p e. */
std::string check_loaded(const Csr& g, const EdgeList& e, std::uint64_t n,
                         std::uint64_t expect_n, std::uint64_t expect_m);

std::string check_bijection(const Ranks& r, std::uint64_t n);

/** @p h is @p g relabelled by @p r: N_h(r(v)) = r(N_g(v)) for every v. */
std::string check_applied(const Csr& g, const Ranks& r, const Csr& h);

/** The reported average gap and bandwidth match a recomputation. */
std::string check_gap(const Csr& g, const Ranks& r, double avg_gap,
                      std::uint64_t bandwidth);

/** Degrees are non-increasing by new id. */
std::string check_degree_order(const Csr& h);

std::vector<std::uint32_t> serial_bfs(const Csr& g, std::uint32_t src);

/** dist_h[r(v)] == dist_g[v]; unreached is the program's kNoVertex. */
std::string check_bfs(const std::vector<std::uint32_t>& dist_g,
                      const Ranks& r,
                      const std::vector<std::uint32_t>& dist_h);

/** Sums to 1 and, relabelled back, equals the reference ranking. */
std::string check_pagerank(const std::vector<double>& pr_h, const Ranks& r,
                           const std::vector<double>& pr_ref);

double modularity_of(const Csr& g, const std::vector<std::uint32_t>& comm);

std::string check_modularity(const Csr& g,
                             const std::vector<std::uint32_t>& comm,
                             double reported);

/** Mean and standard error of the IC spread of @p seeds. */
struct SpreadEstimate
{
    double mean = 0;
    double stderr_ = 0;
};
SpreadEstimate ic_spread(const Csr& g, const std::vector<std::uint32_t>& seeds,
                         double p, int trials, std::uint64_t seed);

std::string check_imm(const std::vector<std::uint32_t>& seeds,
                      std::uint32_t k, std::uint64_t n,
                      std::uint64_t rrr_sets, std::uint64_t max_samples,
                      double spread, const SpreadEstimate& mc);

/** One `OK`/`ERR` service response line against the request it
 *  answers and the FNV of the same scheme run in-process. */
std::string check_response(const std::string& line,
                           const std::string& scheme,
                           std::uint64_t expect_fnv,
                           std::map<std::string, std::string>* fields);

} // namespace perfbench
