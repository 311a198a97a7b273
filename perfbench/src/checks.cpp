#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <sstream>
#include <unordered_set>

namespace perfbench {

namespace {

constexpr std::uint32_t kUnreached = 0xffffffffu;

std::string
str(const std::string& what, double a, double b)
{
    std::ostringstream s;
    s.precision(17);
    s << what << ": program " << a << ", benchmark " << b;
    return s.str();
}

} // namespace

std::uint64_t
fnv1a_ranks(const Ranks& r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint32_t x : r)
        for (int b = 0; b < 4; ++b) {
            h ^= (x >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    return h;
}

std::string
check_loaded(const Csr& g, const EdgeList& e, std::uint64_t n,
             std::uint64_t expect_n, std::uint64_t expect_m)
{
    if (g.num_vertices() != expect_n || n != expect_n)
        return str("vertex count", g.num_vertices(), double(expect_n));
    if (g.num_edges() != expect_m || e.size() != expect_m)
        return str("edge count", double(g.num_edges()), double(expect_m));
    for (auto [u, v] : e) {
        const auto nb = g.neighbors(u);
        if (std::find(nb.begin(), nb.end(), v) == nb.end())
            return "input edge {" + std::to_string(u) + "," + std::to_string(v)
                + "} missing from the loaded graph";
    }
    return {};
}

std::string
check_bijection(const Ranks& r, std::uint64_t n)
{
    if (r.size() != n)
        return str("permutation size", double(r.size()), double(n));
    std::vector<std::uint8_t> seen(n, 0);
    for (std::uint32_t x : r) {
        if (x >= n)
            return "rank " + std::to_string(x) + " out of range";
        if (seen[x]++)
            return "rank " + std::to_string(x) + " repeated";
    }
    return {};
}

std::string
check_applied(const Csr& g, const Ranks& r, const Csr& h)
{
    if (h.num_vertices() != g.num_vertices() || h.num_edges() != g.num_edges())
        return str("applied graph size", double(h.num_edges()),
                   double(g.num_edges()));
    std::vector<std::uint32_t> a, b;
    for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
        a.clear();
        for (auto w : g.neighbors(v))
            a.push_back(r[w]);
        const auto nh = h.neighbors(r[v]);
        b.assign(nh.begin(), nh.end());
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        if (a != b)
            return "edges of vertex " + std::to_string(v)
                + " are not relabelled onto new id " + std::to_string(r[v]);
    }
    return {};
}

std::string
check_gap(const Csr& g, const Ranks& r, double avg_gap,
          std::uint64_t bandwidth)
{
    std::uint64_t sum = 0, bw = 0;
    for (std::uint32_t v = 0; v < g.num_vertices(); ++v)
        for (auto w : g.neighbors(v)) {
            const std::uint64_t gap = r[v] > r[w] ? r[v] - r[w] : r[w] - r[v];
            bw = std::max(bw, gap);
            if (v < w)
                sum += gap;
        }
    const double mine =
        double(sum) / double(std::max<std::uint64_t>(g.num_edges(), 1));
    if (std::abs(mine - avg_gap) > 1e-12 * std::max(1.0, mine))
        return str("avg_gap", avg_gap, mine);
    if (bw != bandwidth)
        return str("bandwidth", double(bandwidth), double(bw));
    return {};
}

std::string
check_degree_order(const Csr& h)
{
    for (std::uint32_t v = 1; v < h.num_vertices(); ++v)
        if (h.degree(v) > h.degree(v - 1))
            return "degree increases at new id " + std::to_string(v);
    return {};
}

std::vector<std::uint32_t>
serial_bfs(const Csr& g, std::uint32_t src)
{
    std::vector<std::uint32_t> dist(g.num_vertices(), kUnreached);
    std::deque<std::uint32_t> q{src};
    dist[src] = 0;
    while (!q.empty()) {
        const auto v = q.front();
        q.pop_front();
        for (auto w : g.neighbors(v))
            if (dist[w] == kUnreached) {
                dist[w] = dist[v] + 1;
                q.push_back(w);
            }
    }
    return dist;
}

std::string
check_bfs(const std::vector<std::uint32_t>& dist_g, const Ranks& r,
          const std::vector<std::uint32_t>& dist_h)
{
    if (dist_h.size() != dist_g.size())
        return str("bfs size", double(dist_h.size()), double(dist_g.size()));
    for (std::size_t v = 0; v < dist_g.size(); ++v)
        if (dist_h[r[v]] != dist_g[v])
            return str("bfs distance of vertex " + std::to_string(v),
                       dist_h[r[v]], dist_g[v]);
    return {};
}

std::string
check_pagerank(const std::vector<double>& pr_h, const Ranks& r,
               const std::vector<double>& pr_ref)
{
    if (pr_h.size() != pr_ref.size())
        return str("pagerank size", double(pr_h.size()), double(pr_ref.size()));
    double sum = 0, l1 = 0;
    for (std::size_t v = 0; v < pr_ref.size(); ++v) {
        sum += pr_h[r[v]];
        l1 += std::abs(pr_h[r[v]] - pr_ref[v]);
    }
    if (std::abs(sum - 1.0) > kPageRankSumTol)
        return str("pagerank sum", sum, 1.0);
    if (l1 > kPageRankL1Tol)
        return str("pagerank L1 distance to the natural order's ranking", l1,
                   0.0);
    return {};
}

double
modularity_of(const Csr& g, const std::vector<std::uint32_t>& comm)
{
    // Q = sum_c [ in_c / 2m - (tot_c / 2m)^2 ], in_c counting both arcs.
    const double two_m = 2.0 * double(g.num_edges());
    if (two_m == 0)
        return 0;
    std::uint32_t k = 0;
    for (auto c : comm)
        k = std::max(k, c + 1);
    std::vector<double> in(k, 0), tot(k, 0);
    for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
        tot[comm[v]] += g.degree(v);
        for (auto w : g.neighbors(v))
            if (comm[w] == comm[v])
                in[comm[v]] += 1;
    }
    double q = 0;
    for (std::uint32_t c = 0; c < k; ++c)
        q += in[c] / two_m - (tot[c] / two_m) * (tot[c] / two_m);
    return q;
}

std::string
check_modularity(const Csr& g, const std::vector<std::uint32_t>& comm,
                 double reported)
{
    if (comm.size() != g.num_vertices())
        return str("community vector size", double(comm.size()),
                   g.num_vertices());
    const double mine = modularity_of(g, comm);
    if (std::abs(mine - reported) > kModularityTol)
        return str("modularity", reported, mine);
    return {};
}

SpreadEstimate
ic_spread(const Csr& g, const std::vector<std::uint32_t>& seeds, double p,
          int trials, std::uint64_t seed)
{
    std::vector<std::uint32_t> stamp(g.num_vertices(), 0);
    std::vector<std::uint32_t> frontier;
    double s1 = 0, s2 = 0;
    for (int t = 1; t <= trials; ++t) {
        Rng rng(seed * 1000003 + t);
        frontier.clear();
        for (auto s : seeds)
            if (stamp[s] != std::uint32_t(t)) {
                stamp[s] = t;
                frontier.push_back(s);
            }
        std::size_t active = frontier.size();
        for (std::size_t i = 0; i < frontier.size(); ++i)
            for (auto w : g.neighbors(frontier[i]))
                if (stamp[w] != std::uint32_t(t) && rng.uniform() < p) {
                    stamp[w] = t;
                    frontier.push_back(w);
                    ++active;
                }
        s1 += double(active);
        s2 += double(active) * double(active);
    }
    SpreadEstimate e;
    e.mean = s1 / trials;
    const double var = std::max(0.0, s2 / trials - e.mean * e.mean);
    e.stderr_ = std::sqrt(var / trials);
    return e;
}

std::string
check_imm(const std::vector<std::uint32_t>& seeds, std::uint32_t k,
          std::uint64_t n, std::uint64_t rrr_sets, std::uint64_t max_samples,
          double spread, const SpreadEstimate& mc)
{
    if (seeds.size() != k)
        return str("imm seed count", double(seeds.size()), k);
    std::unordered_set<std::uint32_t> uniq(seeds.begin(), seeds.end());
    if (uniq.size() != seeds.size())
        return "imm returned a repeated seed";
    for (auto s : seeds)
        if (s >= n)
            return "imm seed " + std::to_string(s) + " out of range";
    if (rrr_sets == 0 || rrr_sets > max_samples)
        return str("imm rrr sets against max_samples", double(rrr_sets),
                   double(max_samples));
    const double tol = std::max(kSpreadRelTol * mc.mean, 4 * mc.stderr_);
    if (std::abs(spread - mc.mean) > tol)
        return str("imm spread against Monte-Carlo", spread, mc.mean);
    return {};
}

std::string
check_response(const std::string& line, const std::string& scheme,
               std::uint64_t expect_fnv,
               std::map<std::string, std::string>* fields)
{
    std::istringstream in(line);
    std::string tok;
    in >> tok;
    if (tok != "OK")
        return "response is not OK: " + line;
    fields->clear();
    while (in >> tok) {
        const auto eq = tok.find('=');
        if (eq == std::string::npos)
            return "malformed response field '" + tok + "'";
        (*fields)[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    auto get = [&](const char* k) {
        auto it = fields->find(k);
        return it == fields->end() ? std::string("<missing>") : it->second;
    };
    if (get("degraded") != "0" || get("fell_back") != "0")
        return "degraded response: " + line;
    if (get("scheme") != scheme)
        return "response scheme " + get("scheme") + " for requested "
            + scheme;
    const std::string f = get("perm_fnv");
    if (std::strtoull(f.c_str(), nullptr, 16) != expect_fnv)
        return "perm_fnv " + f + " differs from the in-process run of "
            + scheme;
    return {};
}

} // namespace perfbench
