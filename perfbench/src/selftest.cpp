// Self-tests of the benchmark's checks: each takes a correct output of
// one kind, shows that its check accepts it, corrupts it, and shows that
// the check rejects the corruption.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "community/louvain.hpp"
#include "graph/builder.hpp"
#include "graph/permutation.hpp"
#include "graph/traversal.hpp"
#include "influence/imm.hpp"
#include "kernels/pagerank.hpp"
#include "la/gap_measures.hpp"
#include "order/runner.hpp"

namespace perfbench {

namespace {

int failures = 0;

void
expect(const char* what, bool accepts_good, bool rejects_bad)
{
    const bool ok = accepts_good && rejects_bad;
    std::printf("%-44s %s\n", what, ok ? "ok" : "FAILED");
    failures += !ok;
}

Csr
to_csr(const EdgeList& e, std::uint32_t n)
{
    std::vector<graphorder::Edge> edges;
    for (auto [u, v] : e)
        edges.push_back({u, v, 1.0});
    return graphorder::build_csr(n, edges);
}

} // namespace

int
selftest()
{
    using namespace graphorder;
    EdgeList e = maze_edges(30, 20, 0.45, 1);
    const auto [n, m] = count_distinct(e);
    const Csr g = to_csr(e, std::uint32_t(n));
    EdgeList sorted;
    for (auto [u, v] : e)
        sorted.emplace_back(std::min(u, v), std::max(u, v));
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

    {
        EdgeList missing = sorted;
        missing.back().second = missing.back().first; // not an edge
        expect("loaded graph: changed input edge",
               check_loaded(g, sorted, n, n, m).empty(),
               !check_loaded(g, missing, n, n, m).empty());
        expect("loaded graph: wrong edge count",
               check_loaded(g, sorted, n, n, m).empty(),
               !check_loaded(g, sorted, n, n, m + 1).empty());
    }

    const auto rr = run_guarded("rcm", g);
    const Ranks r = rr->perm.ranks();
    {
        Ranks bad = r;
        bad[1] = bad[0];
        expect("permutation: repeated entry", check_bijection(r, n).empty(),
               !check_bijection(bad, n).empty());
    }
    const Csr h = apply_permutation(g, rr->perm);
    {
        Ranks swapped = r;
        std::swap(swapped[0], swapped[5]);
        expect("applied graph: edges not relabelled",
               check_applied(g, r, h).empty(),
               !check_applied(g, swapped, h).empty());
    }
    {
        const GapMetrics gm = compute_gap_metrics(g, rr->perm);
        expect("gap: wrong avg_gap",
               check_gap(g, r, gm.avg_gap, gm.bandwidth).empty(),
               !check_gap(g, r, gm.avg_gap * 1.001, gm.bandwidth).empty());
        expect("gap: wrong bandwidth",
               check_gap(g, r, gm.avg_gap, gm.bandwidth).empty(),
               !check_gap(g, r, gm.avg_gap, gm.bandwidth + 1).empty());
    }
    {
        const auto deg = run_guarded("degree", g);
        const Csr hd = apply_permutation(g, deg->perm);
        expect("degree: degrees increase by new id",
               check_degree_order(hd).empty(), !check_degree_order(h).empty());
    }
    {
        const auto dist_g = serial_bfs(g, 0);
        auto dist_h = parallel_bfs(h, r[0]).distance;
        const bool good = check_bfs(dist_g, r, dist_h).empty();
        dist_h[7] += 1;
        expect("bfs: wrong distance", good,
               !check_bfs(dist_g, r, dist_h).empty());
    }
    {
        const auto ref = pagerank(g).rank;
        auto pr = pagerank(h).rank;
        const bool good = check_pagerank(pr, r, ref).empty();
        auto scaled = pr;
        for (auto& x : scaled)
            x *= 1.01;
        std::swap(pr[0], pr[1]);
        expect("pagerank: does not sum to 1", good,
               !check_pagerank(scaled, r, ref).empty());
        expect("pagerank: changed under the permutation", good,
               !check_pagerank(pr, r, ref).empty());
    }
    {
        const auto lr = louvain(h);
        expect("louvain: wrong modularity",
               check_modularity(h, lr.community, lr.modularity).empty(),
               !check_modularity(h, lr.community, lr.modularity + 1e-3)
                    .empty());
    }
    {
        ImmOptions io;
        io.num_seeds = 4;
        io.edge_probability = 0.1;
        io.max_samples = 1 << 16;
        const auto ir = imm(h, io);
        const auto mc = ic_spread(h, ir.seeds, 0.1, 2000, 3);
        auto chk = [&](const std::vector<std::uint32_t>& s, std::uint64_t sets,
                       double spread) {
            return check_imm(s, 4, h.num_vertices(), sets, io.max_samples,
                             spread, mc);
        };
        const std::string why =
            chk(ir.seeds, ir.stats.num_rrr_sets, ir.stats.estimated_spread);
        if (!why.empty())
            std::printf("imm on the correct output: %s\n", why.c_str());
        const bool good = why.empty();
        auto rep = ir.seeds;
        rep[1] = rep[0];
        expect("imm: repeated seed", good,
               !chk(rep, ir.stats.num_rrr_sets, ir.stats.estimated_spread)
                    .empty());
        expect("imm: over max_samples", good,
               !chk(ir.seeds, io.max_samples + 1, ir.stats.estimated_spread)
                    .empty());
        expect("imm: spread far from Monte-Carlo", good,
               !chk(ir.seeds, ir.stats.num_rrr_sets, 2 * mc.mean + 10).empty());
    }
    {
        const std::uint64_t fnv = fnv1a_ranks(r);
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(fnv));
        const std::string ok = std::string("OK id=1 scheme=rcm n=600 perm_fnv=")
            + hex + " cached=1 coalesced=0 degraded=0 fell_back=0 attempts=1"
            " queue_ms=0.000 run_ms=0.000 total_ms=0.010";
        std::map<std::string, std::string> f;
        const bool good = check_response(ok, "rcm", fnv, &f).empty();
        std::string bad_fnv = ok;
        bad_fnv[bad_fnv.find("perm_fnv=") + 12] ^= 1;
        std::string degraded = ok;
        degraded.replace(degraded.find("degraded=0"), 10, "degraded=1");
        expect("service: changed perm_fnv", good,
               !check_response(bad_fnv, "rcm", fnv, &f).empty());
        expect("service: degraded answer", good,
               !check_response(degraded, "rcm", fnv, &f).empty());
        expect("service: other scheme than requested", good,
               !check_response(ok, "dbg", fnv, &f).empty());
        expect("service: ERR response", good,
               !check_response("ERR id=1 code=overloaded msg=queue full",
                               "rcm", fnv, &f)
                    .empty());
    }
    std::printf("%s\n", failures ? "selftest FAILED" : "selftest passed");
    return failures ? 1 : 0;
}

} // namespace perfbench
