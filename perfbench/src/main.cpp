// graphorder end-to-end benchmark driver.
//
//   perfbench run --workload powerlaw|road --seed N --seconds S --trace 0|1
//                 --work-dir DIR --reorderd PATH
//   perfbench selftest
//
// One run generates its inputs from the seed (cached under DIR/inputs,
// not timed), sets up (load + validate of the main graph, then the
// reorderd daemon over stdio until it answers PING with every tenant
// loaded; five times, median), and then repeats whole rounds until S
// seconds have passed.  A round is the reorder-to-application pipeline
// over the workload's roster followed by a closed-loop request mix
// against the daemon.  Every layer call is timed from here, around the
// library's public functions; the last stdout line is the JSON result.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <spawn.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "community/louvain.hpp"
#include "gen.hpp"
#include "graph/io.hpp"
#include "graph/permutation.hpp"
#include "graph/traversal.hpp"
#include "influence/imm.hpp"
#include "kernels/pagerank.hpp"
#include "la/gap_measures.hpp"
#include "memsim/cache.hpp"
#include "order/runner.hpp"
#include "util/parallel.hpp"

extern char** environ;

namespace perfbench {

int selftest();

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double
now_s()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t i = std::min(
        v.size() - 1, static_cast<std::size_t>(std::ceil(q * v.size())) - 1);
    return v[i];
}

double
geomean(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return v.empty() ? 0 : std::exp(s / double(v.size()));
}

double
mean(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / double(v.size());
}

// ---- spans ------------------------------------------------------------

struct SpanRec
{
    std::string name;
    double t0, t1;
    int round;
    long parent; ///< index of the enclosing span, -1 for a round root
};

/** Per-round timings by span name, plus the in-memory span log that a
 *  traced run writes out at exit. */
struct Recorder
{
    bool tracing = false;
    int round = 0;
    std::vector<SpanRec> log;
    std::map<std::string, double> sec; ///< this round, by span name
    long open_parent = -1;

    void add(const std::string& name, double t0, double t1, long parent)
    {
        sec[name] += t1 - t0;
        if (tracing)
            log.push_back({name, t0, t1, round, parent});
    }
};

/** Times one layer call; the name's prefix is the layer. */
class Span
{
  public:
    Span(Recorder& r, std::string name)
        : r_(r), name_(std::move(name)), t0_(now_s())
    {
    }
    ~Span() { r_.add(name_, t0_, now_s(), r_.open_parent); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Recorder& r_;
    std::string name_;
    double t0_;
};

/** End-to-end category of a layer span ("" = benchmark's own work). */
std::string
category(const std::string& span)
{
    auto starts = [&](const char* p) { return span.rfind(p, 0) == 0; };
    if (starts("order."))
        return "reorder";
    if (starts("graph.") || starts("la."))
        return "evaluate";
    if (starts("kernels."))
        return "kernel";
    if (starts("community.") || starts("influence."))
        return "app";
    if (starts("memsim."))
        return "memsim";
    if (starts("service."))
        return "service";
    return "";
}

// ---- workloads --------------------------------------------------------

struct Tenant
{
    std::string name;
    GeneratedInput in;
};

struct Workload
{
    GeneratedInput main;
    std::vector<std::string> roster;
    /** Scheme that runs under a deadline on a seed-independent input
     *  and is counted as failed; empty when none. */
    std::string deadline_scheme;
    GeneratedInput deadline_input;
    double deadline_ms = 0;
    std::vector<std::string> app_orderings{"natural", "dbg", "rabbit"};
    double imm_p = 0;
    std::vector<Tenant> tenants;
    /** Second version of tenants[0]; rounds alternate the two with LOAD,
     *  which invalidates the tenant's cached permutations. */
    GeneratedInput tenant0_alt;
};

constexpr int kImmSeeds = 32;
constexpr std::uint64_t kImmMaxSamples = 1u << 22;
constexpr int kSpreadTrials = 400;
constexpr int kRequestsPerRound = 12000;
constexpr int kInFlight = 4;
constexpr int kNoCacheEvery = 10; ///< every 10th request sets no_cache=1
constexpr int kSetups = 5;
const std::vector<std::string> kServiceSchemes{
    "degree", "hubsort", "hubcluster", "dbg", "boba", "rcm", "rabbit"};
/** Request weights per service scheme: mostly lightweight. */
const std::vector<int> kServiceWeights{3, 2, 2, 3, 2, 1, 1};
/** The first five service schemes are the lightweight ones. */
constexpr std::size_t kServiceLightweight = 5;

/** The roster both workloads share (road runs slashburn as its
 *  deadline operation).  The manifest lists one set of per-layer metrics
 *  for every workload, so the traced run reports order.<scheme>.* for
 *  these schemes only, and la.<scheme>.* for those that succeed on both
 *  workloads (all but slashburn). */
const std::vector<std::string> kBaseRoster{
    "natural", "degree", "hubsort", "hubcluster", "dbg",
    "boba",    "rcm",    "rabbit",  "grappolo",   "slashburn"};

Workload
make_workload(const std::string& name, std::uint64_t seed,
              const std::string& dir)
{
    Workload w;
    const std::string s = "-s" + std::to_string(seed);
    auto tenant = [&](const std::string& tname, const std::string& file,
                      const EdgeList& e) {
        w.tenants.push_back({tname, write_input(dir, file, e)});
    };
    const std::vector<std::string>& base = kBaseRoster;
    if (name == "powerlaw") {
        w.main = write_input(dir, "rmat-17-10" + s, rmat_edges(17, 10, seed));
        w.roster = base;
        w.imm_p = 0.002;
        tenant("pl-small", "rmat-10-4" + s, rmat_edges(10, 4, seed + 1));
        w.tenant0_alt = write_input(dir, "rmat-10-4-alt" + s,
                                    rmat_edges(10, 4, seed + 101));
        tenant("pl-mid", "rmat-13-8" + s, rmat_edges(13, 8, seed + 2));
        tenant("pl-large", "rmat-15-6" + s, rmat_edges(15, 6, seed + 3));
        tenant("comm-small", "comm-2000-50-8-1" + s,
               community_edges(2000, 50, 8, 1, seed + 4));
        tenant("comm-large", "comm-20000-200-8-1" + s,
               community_edges(20000, 200, 8, 1, seed + 5));
    } else if (name == "road") {
        w.main = write_input(dir, "maze-400-320" + s,
                             maze_edges(400, 320, 0.45, seed));
        w.roster = base;
        w.roster.erase(std::find(w.roster.begin(), w.roster.end(),
                                 "slashburn"));
        w.roster.push_back("metis-32");
        w.roster.push_back("gorder");
        w.deadline_scheme = "slashburn";
        // Seed-independent on purpose: this operation fails every run.
        w.deadline_input = write_input(dir, "maze-400-320-fixed",
                                       maze_edges(400, 320, 0.45, 0));
        w.deadline_ms = 1000;
        w.imm_p = 0.5;
        tenant("road-small", "maze-40-40" + s, maze_edges(40, 40, 0.45, seed + 1));
        w.tenant0_alt = write_input(dir, "maze-40-40-alt" + s,
                                    maze_edges(40, 40, 0.45, seed + 101));
        tenant("road-mid", "maze-150-150" + s,
               maze_edges(150, 150, 0.45, seed + 2));
        tenant("road-large", "maze-350-350" + s,
               maze_edges(350, 350, 0.45, seed + 3));
        tenant("comm-small", "comm-2000-50-8-1" + s,
               community_edges(2000, 50, 8, 1, seed + 4));
        tenant("pl-mid", "rmat-13-8" + s, rmat_edges(13, 8, seed + 2));
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

// ---- the reorderd daemon over stdio -----------------------------------

class Daemon
{
  public:
    Daemon(const std::string& exe, const std::vector<Tenant>& tenants)
    {
        int in[2], out[2];
        if (::pipe(in) != 0 || ::pipe(out) != 0)
            throw std::runtime_error("pipe failed");
        std::vector<std::string> args{exe, "--stdio"};
        for (const auto& t : tenants) {
            args.push_back("--load");
            args.push_back(t.name + "=" + t.in.path);
        }
        std::vector<char*> argv;
        for (auto& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, in[0], 0);
        posix_spawn_file_actions_adddup2(&fa, out[1], 1);
        for (int fd : {in[0], in[1], out[0], out[1]})
            posix_spawn_file_actions_addclose(&fa, fd);
        const int rc =
            posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(in[0]);
        ::close(out[1]);
        to_ = in[1];
        from_ = out[0];
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + exe);
        }
    }
    ~Daemon()
    {
        if (to_ >= 0)
            ::close(to_); // EOF: the daemon drains and exits
        if (pid_ > 0) {
            int st = 0;
            ::waitpid(pid_, &st, 0);
        }
        if (from_ >= 0)
            ::close(from_);
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    void send(const std::string& line)
    {
        std::string s = line + "\n";
        const char* p = s.data();
        std::size_t left = s.size();
        while (left > 0) {
            const ssize_t n = ::write(to_, p, left);
            if (n <= 0)
                throw std::runtime_error("daemon closed its input");
            p += n;
            left -= std::size_t(n);
        }
    }
    std::string recv()
    {
        for (;;) {
            const auto nl = buf_.find('\n', pos_);
            if (nl != std::string::npos) {
                std::string line = buf_.substr(pos_, nl - pos_);
                pos_ = nl + 1;
                if (pos_ > (1 << 16)) {
                    buf_.erase(0, pos_);
                    pos_ = 0;
                }
                return line;
            }
            char chunk[1 << 14];
            const ssize_t n = ::read(from_, chunk, sizeof chunk);
            if (n <= 0)
                throw std::runtime_error("daemon closed its output");
            buf_.append(chunk, std::size_t(n));
        }
    }
    std::string call(const std::string& line)
    {
        send(line);
        return recv();
    }

  private:
    pid_t pid_ = -1;
    int to_ = -1, from_ = -1;
    std::string buf_;
    std::size_t pos_ = 0;
};

std::map<std::string, std::string>
fields_of(const std::string& line)
{
    std::map<std::string, std::string> kv;
    std::size_t i = line.find(' ');
    while (i != std::string::npos) {
        const std::size_t j = line.find(' ', i + 1);
        const std::string tok = line.substr(i + 1, j - i - 1);
        const auto eq = tok.find('=');
        if (eq != std::string::npos)
            kv[tok.substr(0, eq)] = tok.substr(eq + 1);
        i = j;
    }
    return kv;
}

// ---- one run ----------------------------------------------------------

double category_sum(const std::map<std::string, double>& sec,
                    const std::string& c);

struct Request
{
    std::string tenant, scheme;
    bool no_cache;
};

struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;

    void check(const std::string& where, const std::string& err)
    {
        if (err.empty())
            return;
        correct = false;
        if (errors.size() < 8)
            errors.push_back(where + ": " + err);
    }
};

/** Values of one round besides the span timings. */
struct RoundValues
{
    double wall = 0, check = 0;
    std::map<std::string, double> v;
};

class Runner
{
  public:
    Runner(Workload w, std::string reorderd) : w_(std::move(w)),
                                               reorderd_(std::move(reorderd))
    {
    }

    void setup(Outcome& out);
    RoundValues round(Outcome& out, bool full_checks);
    Recorder rec;
    std::vector<double> load_s, setup_s;

  private:
    void pipeline(Outcome& out, RoundValues& rv, bool full_checks);
    void service(Outcome& out, RoundValues& rv);
    template <class F>
    void checked(RoundValues& rv, F&& f)
    {
        const double t0 = now_s();
        f();
        rv.check += now_s() - t0;
    }

    Workload w_;
    std::string reorderd_;
    Csr g_, g_deadline_;
    std::uint32_t bfs_src_ = 0;
    std::vector<std::uint32_t> dist_g_;
    std::vector<double> pr_ref_;
    std::map<std::string, std::uint64_t> fnv_first_;
    std::unique_ptr<Daemon> daemon_;
    /** FNV of each (input path, scheme) run in-process. */
    std::map<std::pair<std::string, std::string>, std::uint64_t> expect_fnv_;
    std::map<std::string, std::string> path_of_; ///< tenant -> loaded file
    std::vector<Request> mix_;
};

void
Runner::setup(Outcome& out)
{
    for (int i = 0; i < kSetups; ++i) {
        daemon_.reset();
        Csr g;
        const double t0 = now_s();
        g = graphorder::load_edge_list(w_.main.path);
        const double t1 = now_s();
        const auto st = g.validate();
        if (!st.is_ok())
            out.check("validate", st.to_string());
        daemon_ = std::make_unique<Daemon>(reorderd_, w_.tenants);
        const std::string pong = daemon_->call("PING id=setup");
        const double t3 = now_s();
        if (pong.rfind("OK", 0) != 0)
            throw std::runtime_error("daemon did not answer PING: " + pong);
        load_s.push_back(t1 - t0);
        setup_s.push_back(t3 - t0);
        std::fprintf(stderr, "setup %d: load %.3f s, ready %.3f s\n", i + 1,
                     t1 - t0, t3 - t0);
        g_ = std::move(g);
    }

    // Reference results, computed once with the benchmark's own code.
    std::uint64_t n_file = 0;
    const EdgeList edges = read_compacted(w_.main.path, &n_file);
    out.check("load", check_loaded(g_, edges, n_file, w_.main.n, w_.main.m));
    for (std::uint32_t v = 0; v < g_.num_vertices(); ++v)
        if (g_.degree(v) > g_.degree(bfs_src_))
            bfs_src_ = v;
    dist_g_ = serial_bfs(g_, bfs_src_);
    if (!w_.deadline_scheme.empty())
        g_deadline_ = graphorder::load_edge_list(w_.deadline_input.path);

    // In-process permutations of every (tenant, scheme) the mix sends.
    std::vector<std::string> paths{w_.tenant0_alt.path};
    for (const auto& t : w_.tenants) {
        paths.push_back(t.in.path);
        path_of_[t.name] = t.in.path;
    }
    for (const auto& path : paths) {
        const Csr tg = graphorder::load_edge_list(path);
        for (const auto& s : kServiceSchemes) {
            auto r = graphorder::run_guarded(s, tg);
            if (!r)
                throw std::runtime_error("in-process " + s + " failed");
            expect_fnv_[{path, s}] = fnv1a_ranks(r->perm.ranks());
        }
    }
    // The request mix: the same sequence every round.
    Rng rng(0x6d6978ULL);
    int total_w = 0;
    for (int x : kServiceWeights)
        total_w += x;
    for (int i = 0; i < kRequestsPerRound; ++i) {
        Request q;
        q.tenant = w_.tenants[rng.below(w_.tenants.size())].name;
        q.no_cache = i % kNoCacheEvery == kNoCacheEvery - 1;
        std::size_t s = 0;
        if (q.no_cache) {
            // Uncached requests stay lightweight, so that no handful of
            // heavy runs sets the round's service time.
            s = rng.below(kServiceLightweight);
        } else {
            int pick = int(rng.below(std::uint64_t(total_w)));
            while (pick >= kServiceWeights[s])
                pick -= kServiceWeights[s++];
        }
        q.scheme = kServiceSchemes[s];
        mix_.push_back(q);
    }
    // Fill the cache with every key once (not part of any round).
    for (const auto& t : w_.tenants)
        for (const auto& s : kServiceSchemes) {
            const std::string line = daemon_->call(
                "ORDER id=warm graph=" + t.name + " scheme=" + s);
            std::map<std::string, std::string> f;
            out.check("warm-up",
                      check_response(line, s, expect_fnv_.at({t.in.path, s}),
                                     &f));
        }
}

void
Runner::pipeline(Outcome& out, RoundValues& rv, bool full_checks)
{
    using namespace graphorder;
    std::vector<double> gaps, bits;
    std::map<std::string, Csr> applied;

    auto order_one = [&](const std::string& scheme, const Csr& g,
                         double deadline_ms) -> std::optional<Permutation> {
        GuardedRunOptions opt;
        opt.deadline_ms = deadline_ms;
        opt.allow_fallback = false;
        opt.validate = false; // the benchmark validates on its own
        ++out.attempted;
        Expected<GuardedRunResult> r = [&] {
            Span s(rec, "order." + scheme);
            return run_guarded(scheme, g, opt);
        }();
        if (!r) {
            ++out.failed;
            return std::nullopt;
        }
        checked(rv, [&] {
            out.check("order." + scheme,
                      r->scheme_used == scheme
                          ? check_bijection(r->perm.ranks(), g.num_vertices())
                          : "ran " + r->scheme_used + " for " + scheme);
        });
        return std::move(r->perm);
    };

    if (!w_.deadline_scheme.empty()
        && order_one(w_.deadline_scheme, g_deadline_, w_.deadline_ms))
        out.check("order." + w_.deadline_scheme,
                  "finished inside its deadline; the known fault may be fixed");

    for (const auto& scheme : w_.roster) {
        auto p = order_one(scheme, g_, 0);
        if (!p)
            continue;
        const auto& ranks = p->ranks();

        ++out.attempted;
        Csr h = [&] {
            Span s(rec, "graph.apply");
            return apply_permutation(g_, *p);
        }();
        ++out.attempted;
        Status st;
        {
            Span s(rec, "graph.validate");
            st = h.validate();
        }
        ++out.attempted;
        GapMetrics gm;
        {
            Span s(rec, "la.gap");
            gm = compute_gap_metrics(g_, *p);
        }
        ++out.attempted;
        CompressionStats cs;
        {
            Span s(rec, "la.compress");
            cs = compute_compression_stats(g_, *p);
        }
        rv.v["la." + scheme + ".avg_gap"] = gm.avg_gap;
        rv.v["la." + scheme + ".bits_per_edge"] = cs.bits_per_edge;
        gaps.push_back(gm.avg_gap);
        bits.push_back(cs.bits_per_edge);

        ++out.attempted;
        PageRankResult pr;
        {
            Span s(rec, "kernels.pagerank");
            pr = pagerank(h);
        }
        ++out.attempted;
        BfsResult bfs;
        {
            Span s(rec, "kernels.bfs");
            bfs = parallel_bfs(h, ranks[bfs_src_]);
        }
        rv.v["kernels.pagerank_iterations"] += pr.iterations;
        rv.v["kernels.bfs_levels"] = bfs.max_distance + 1;

        checked(rv, [&] {
            const std::string w = scheme;
            out.check(w + " validate", st.is_ok() ? "" : st.to_string());
            const std::uint64_t fnv = fnv1a_ranks(ranks);
            // Deterministic schemes must give the same permutation in
            // every round; the full checks then hold for every round.
            if (scheme != "grappolo" && fnv_first_.count(scheme))
                out.check(w, fnv_first_[scheme] == fnv
                                 ? ""
                                 : "permutation changed between rounds");
            fnv_first_[scheme] = fnv;
            if (scheme == "natural")
                pr_ref_ = pr.rank;
            out.check(w + " pagerank", check_pagerank(pr.rank, ranks, pr_ref_));
            out.check(w + " bfs", check_bfs(dist_g_, ranks, bfs.distance));
            if (scheme == "degree")
                out.check(w, check_degree_order(h));
            if (full_checks || scheme == "grappolo") {
                out.check(w + " apply", check_applied(g_, ranks, h));
                out.check(w + " gap",
                          check_gap(g_, ranks, gm.avg_gap, gm.bandwidth));
            }
        });
        if (std::find(w_.app_orderings.begin(), w_.app_orderings.end(),
                      scheme)
            != w_.app_orderings.end())
            applied.emplace(scheme, std::move(h));
    }
    rv.v["kernels.pagerank_iterations"] /= double(w_.roster.size());
    rv.v["avg_gap"] = geomean(gaps);
    rv.v["bits_per_edge"] = geomean(bits);

    std::vector<double> lat, mod, spread;
    for (const auto& o : w_.app_orderings) {
        const Csr& h = applied.at(o);
        ++out.attempted;
        MemoryMetrics mm;
        {
            Span s(rec, "memsim.trace");
            CacheTracer tracer(CacheHierarchyConfig::cascade_lake());
            PageRankOptions po;
            po.tracer = &tracer;
            po.max_iterations = 1;
            pagerank(h, po);
            mm = tracer.metrics();
        }
        lat.push_back(mm.avg_load_latency());
        rv.v["memsim." + o + ".load_latency_cyc"] = mm.avg_load_latency();
        rv.v["memsim." + o + ".dram_bound"] =
            mm.bound_fraction(mm.level_lookups.size() - 1);

        ++out.attempted;
        LouvainResult lr;
        {
            Span s(rec, "community.louvain");
            lr = louvain(h);
        }
        mod.push_back(lr.modularity);
        rv.v["community.louvain_phases"] += double(lr.phases.size());
        for (const auto& ph : lr.phases)
            rv.v["community.louvain_iterations"] += ph.iterations;

        ++out.attempted;
        ImmOptions io;
        io.num_seeds = kImmSeeds;
        io.edge_probability = w_.imm_p;
        io.epsilon = 0.5;
        io.max_samples = kImmMaxSamples;
        ImmResult ir;
        {
            Span s(rec, "influence.imm");
            ir = imm(h, io);
        }
        spread.push_back(ir.stats.estimated_spread);
        rv.v["influence.sampling_s"] += ir.stats.sampling_time_s;
        rv.v["influence.selection_s"] += ir.stats.selection_time_s;
        rv.v["influence.rrr_sets"] += double(ir.stats.num_rrr_sets);

        checked(rv, [&] {
            out.check(o + " louvain",
                      check_modularity(h, lr.community, lr.modularity));
            if (full_checks)
                out.check(o + " imm",
                          check_imm(ir.seeds, kImmSeeds, h.num_vertices(),
                                    ir.stats.num_rrr_sets, kImmMaxSamples,
                                    ir.stats.estimated_spread,
                                    ic_spread(h, ir.seeds, w_.imm_p,
                                              kSpreadTrials, 7)));
        });
    }
    const double apps = double(w_.app_orderings.size());
    for (const char* k : {"community.louvain_phases",
                          "community.louvain_iterations",
                          "influence.rrr_sets"})
        rv.v[k] /= apps;
    rv.v["sim_load_latency_cyc"] = geomean(lat);
    rv.v["modularity"] = mean(mod);
    rv.v["imm_spread"] = mean(spread);
}

void
Runner::service(Outcome& out, RoundValues& rv)
{
    Daemon& d = *daemon_;
    auto stats = [&] {
        ++out.attempted;
        std::string line;
        {
            Span s(rec, "service.stats");
            line = d.call("STATS id=stats");
        }
        return fields_of(line);
    };
    // A graph update: loading the other version of the first tenant
    // invalidates its cached permutations, so each round has misses.
    const Tenant& first = w_.tenants[0];
    std::string& path0 = path_of_[first.name];
    path0 = path0 == first.in.path ? w_.tenant0_alt.path : first.in.path;
    ++out.attempted;
    std::string line;
    {
        Span s(rec, "service.load");
        line = d.call("LOAD id=reload graph=" + first.name + " path=" + path0);
    }
    out.check("service LOAD", line.rfind("OK", 0) == 0 ? "" : line);
    const auto before = stats();

    std::vector<double> sent(mix_.size()), latency_ms, queue_ms, run_ms;
    std::size_t next = 0, done = 0;
    const double t0 = now_s();
    {
        Span s(rec, "service.orders");
        auto send_next = [&] {
            const Request& q = mix_[next];
            std::string req = "ORDER id=" + std::to_string(next) + " graph="
                + q.tenant + " scheme=" + q.scheme;
            if (q.no_cache)
                req += " no_cache=1";
            sent[next] = now_s();
            d.send(req);
            ++next;
        };
        while (next < mix_.size() && next < std::size_t(kInFlight))
            send_next();
        std::map<std::string, std::string> f;
        while (done < mix_.size()) {
            line = d.recv();
            const double t = now_s();
            ++done;
            ++out.attempted;
            const auto kv = fields_of(line);
            const auto it = kv.find("id");
            const std::size_t id =
                it == kv.end() ? mix_.size() : std::stoul(it->second);
            if (id >= mix_.size())
                throw std::runtime_error("unmatched response: " + line);
            latency_ms.push_back(1e3 * (t - sent[id]));
            if (next < mix_.size())
                send_next();
            if (line.rfind("ERR", 0) == 0) {
                ++out.failed;
                continue;
            }
            const Request& q = mix_[id];
            const std::string err = check_response(
                line, q.scheme,
                expect_fnv_.at({path_of_.at(q.tenant), q.scheme}), &f);
            if (!err.empty()) {
                out.check("service " + q.tenant + "/" + q.scheme, err);
                continue;
            }
            if (f["cached"] == "0" && f["coalesced"] == "0") {
                queue_ms.push_back(std::stod(f["queue_ms"]));
                run_ms.push_back(std::stod(f["run_ms"]));
            }
        }
    }
    const double loop_s = now_s() - t0;
    const auto after = stats();
    auto delta = [&](const char* k) {
        return std::stod(after.at(k)) - std::stod(before.at(k));
    };
    const double hits = delta("cache_hits"), misses = delta("cache_misses");
    rv.v["service.throughput_rps"] = double(mix_.size()) / loop_s;
    // 12000 requests a round leave 120 samples beyond the 99th percentile.
    rv.v["latency_p50_ms"] = percentile(latency_ms, 0.50);
    rv.v["service.latency_p99_ms"] = percentile(latency_ms, 0.99);
    rv.v["service.queue_ms_p50"] = median(queue_ms);
    rv.v["service.run_ms_p50"] = median(run_ms);
    rv.v["service.cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
    rv.v["service.cache_misses"] = misses;
    rv.v["service.coalesced"] = delta("coalesced");
}

RoundValues
Runner::round(Outcome& out, bool full_checks)
{
    RoundValues rv;
    rec.sec.clear();
    const double t0 = now_s();
    rec.open_parent = -1;
    if (rec.tracing) {
        rec.log.push_back({"round", t0, t0, rec.round, -1});
        rec.open_parent = long(rec.log.size()) - 1;
    }
    const long root = rec.open_parent;
    pipeline(out, rv, full_checks);
    service(out, rv);
    const double t1 = now_s();
    if (root >= 0)
        rec.log[root].t1 = t1;
    rv.wall = t1 - t0 - rv.check;
    std::fprintf(stderr,
                 "round %d: total %.3f s, reorder %.3f, evaluate %.3f, "
                 "kernel %.3f, app %.3f, memsim %.3f, service %.3f "
                 "(%.0f rps), checks %.3f\n",
                 rec.round, rv.wall, category_sum(rec.sec, "reorder"),
                 category_sum(rec.sec, "evaluate"),
                 category_sum(rec.sec, "kernel"), category_sum(rec.sec, "app"),
                 category_sum(rec.sec, "memsim"),
                 category_sum(rec.sec, "service"),
                 rv.v.at("service.throughput_rps"),
                 rv.check);
    ++rec.round;
    return rv;
}

// ---- output -----------------------------------------------------------

struct Metric
{
    std::string name, unit;
    double value;
};

void
print_result(const Outcome& out, const std::vector<Metric>& ms)
{
    std::string s = "{\"correct\": ";
    s += out.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(out.attempted);
    s += ", \"failed\": " + std::to_string(out.failed);
    s += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(ms[i].value) ? ms[i].value : 0.0);
        s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf
            + ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

/** Per-round sums of the span times of one end-to-end category. */
double
category_sum(const std::map<std::string, double>& sec, const std::string& c)
{
    double t = 0;
    for (const auto& [name, s] : sec)
        if (category(name) == c)
            t += s;
    return t;
}

void
write_trace(const Recorder& rec, const std::string& path)
{
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < rec.log.size(); ++i) {
        const auto& s = rec.log[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"round\": %d, \"parent\": %ld}}%s\n",
                      s.name.c_str(), s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                      s.round, s.parent, i + 1 < rec.log.size() ? "," : "");
        f << buf;
    }
    f << "]}\n";
}

int
run(const std::map<std::string, std::string>& a)
{
    const std::string dir = a.at("--work-dir");
    const std::uint64_t seed = std::stoull(a.at("--seed"));
    const double seconds = std::stod(a.at("--seconds"));
    const bool trace = a.at("--trace") == "1";
    Workload w = make_workload(a.at("--workload"), seed, dir + "/inputs");
    const auto roster = w.roster;
    const auto apps = w.app_orderings;
    const bool has_deadline = !w.deadline_scheme.empty();
    const std::string deadline_scheme = w.deadline_scheme;

    Outcome out;
    Runner r(std::move(w), a.at("--reorderd"));
    r.setup(out);
    out.attempted = 0; // only whole rounds count

    std::vector<RoundValues> rounds;
    std::vector<std::map<std::string, double>> secs;
    const double start = now_s();
    double overhead = 0;
    if (trace) {
        // One untraced round to price the tracing, then traced rounds.
        const RoundValues plain = r.round(out, true);
        r.rec.tracing = true;
        rounds.push_back(r.round(out, false));
        secs.push_back(r.rec.sec);
        overhead = rounds.back().wall / plain.wall - 1;
    }
    while (rounds.empty() || now_s() - start < seconds) {
        rounds.push_back(r.round(out, rounds.empty()));
        secs.push_back(r.rec.sec);
    }

    auto med = [&](const std::function<double(std::size_t)>& f) {
        std::vector<double> v;
        for (std::size_t i = 0; i < rounds.size(); ++i)
            v.push_back(f(i));
        return median(v);
    };
    auto med_v = [&](const std::string& k) {
        return med([&](std::size_t i) { return rounds[i].v.at(k); });
    };
    auto med_cat = [&](const std::string& c) {
        return med([&](std::size_t i) { return category_sum(secs[i], c); });
    };
    auto med_span = [&](const std::string& k) {
        return med([&](std::size_t i) {
            auto it = secs[i].find(k);
            return it == secs[i].end() ? 0.0 : it->second;
        });
    };

    std::vector<Metric> ms;
    if (!trace) {
        ms = {
            {"setup_s", "s", median(r.setup_s)},
            {"total_s", "s", med([&](std::size_t i) { return rounds[i].wall; })},
            {"reorder_s", "s", med_cat("reorder")},
            {"evaluate_s", "s", med_cat("evaluate")},
            {"kernel_s", "s", med_cat("kernel")},
            {"app_s", "s", med_cat("app")},
            {"avg_gap", "vertices", med_v("avg_gap")},
            {"bits_per_edge", "bits", med_v("bits_per_edge")},
            {"sim_load_latency_cyc", "cycles", med_v("sim_load_latency_cyc")},
            {"modularity", "Q", med_v("modularity")},
            {"imm_spread", "vertices", med_v("imm_spread")},
            {"latency_p50_ms", "ms", med_v("latency_p50_ms")},
        };
    } else {
        // Per-layer figures from the traced rounds at the default thread
        // setting, then one more round at 1 thread for the speedups.
        std::map<std::string, double> at_default;
        for (const auto& s : roster)
            at_default[s] = med_span("order." + s);
        if (has_deadline)
            at_default[deadline_scheme] = med_span("order." + deadline_scheme);
        graphorder::set_default_threads(1);
        const RoundValues one = r.round(out, false);
        const auto one_sec = r.rec.sec;
        graphorder::set_default_threads(0);

        ms.push_back({"io.load_s", "s", median(r.load_s)});
        for (const char* k : {"graph.validate", "graph.apply", "la.gap",
                              "la.compress", "kernels.pagerank", "kernels.bfs",
                              "memsim.trace", "community.louvain",
                              "influence.imm"})
            ms.push_back({std::string(k) + "_s", "s", med_span(k)});
        for (const auto& s : kBaseRoster) {
            const double t = at_default.at(s);
            ms.push_back({"order." + s + "_s", "s", t});
            ms.push_back({"order." + s + ".speedup", "x",
                          one_sec.at("order." + s) / t});
        }
        for (const auto& s : kBaseRoster) {
            if (s == "slashburn")
                continue;
            ms.push_back({"la." + s + ".avg_gap", "vertices",
                          med_v("la." + s + ".avg_gap")});
            ms.push_back({"la." + s + ".bits_per_edge", "bits",
                          med_v("la." + s + ".bits_per_edge")});
        }
        for (const auto& o : apps) {
            ms.push_back({"memsim." + o + ".load_latency_cyc", "cycles",
                          med_v("memsim." + o + ".load_latency_cyc")});
            ms.push_back({"memsim." + o + ".dram_bound", "fraction",
                          med_v("memsim." + o + ".dram_bound")});
        }
        ms.push_back({"kernels.pagerank_iterations", "count",
                      med_v("kernels.pagerank_iterations")});
        ms.push_back({"kernels.bfs_levels", "count", med_v("kernels.bfs_levels")});
        ms.push_back({"community.louvain_phases", "count",
                      med_v("community.louvain_phases")});
        ms.push_back({"community.louvain_iterations", "count",
                      med_v("community.louvain_iterations")});
        ms.push_back({"influence.sampling_s", "s", med_v("influence.sampling_s")});
        ms.push_back({"influence.selection_s", "s",
                      med_v("influence.selection_s")});
        ms.push_back({"influence.rrr_sets", "count", med_v("influence.rrr_sets")});
        ms.push_back({"service.queue_ms_p50", "ms", med_v("service.queue_ms_p50")});
        ms.push_back({"service.run_ms_p50", "ms", med_v("service.run_ms_p50")});
        ms.push_back({"service.cache_hit_ratio", "fraction",
                      med_v("service.cache_hit_ratio")});
        ms.push_back({"service.cache_misses", "count",
                      med_v("service.cache_misses")});
        ms.push_back({"service.coalesced", "count", med_v("service.coalesced")});
        // Measured on every round, but reported here without a bound: on
        // the 4-core VM they swung 3-5x between runs with the host's load.
        ms.push_back({"service.throughput_rps", "1/s",
                      med_v("service.throughput_rps")});
        ms.push_back({"service.latency_p99_ms", "ms",
                      med_v("service.latency_p99_ms")});
        const double unattributed = med([&](std::size_t i) {
            double covered = 0;
            for (const auto& [name, s] : secs[i])
                if (!category(name).empty())
                    covered += s;
            return rounds[i].wall - covered;
        });
        ms.push_back({"unattributed_s", "s", unattributed});

        // The per-layer table, with the share of a round's wall time.
        const double total = med([&](std::size_t i) { return rounds[i].wall; });
        std::printf("%-28s %10s %7s\n", "layer (median per round)", "seconds",
                    "share");
        std::map<std::string, double> by_layer;
        for (const auto& [name, s] : secs.front())
            if (!category(name).empty())
                by_layer[name.substr(0, name.find('.', name.find('.') + 1))] = 0;
        for (auto& [layer, t] : by_layer)
            t = med([&](std::size_t i) {
                double x = 0;
                for (const auto& [name, s] : secs[i])
                    if (name.rfind(layer, 0) == 0)
                        x += s;
                return x;
            });
        for (const auto& [layer, t] : by_layer)
            std::printf("%-28s %10.4f %6.1f%%\n", layer.c_str(), t,
                        100 * t / total);
        std::printf("%-28s %10.4f %6.1f%%\n", "unattributed", unattributed,
                    100 * unattributed / total);
        std::printf("%-28s %10.4f\n", "round total", total);
        std::printf("tracing overhead against the untraced round: %+.2f%%\n",
                    100 * overhead);
        std::printf("1-thread round total: %.4f s\n", one.wall);
        std::filesystem::create_directories(dir + "/traces");
        const std::string path = dir + "/traces/" + a.at("--workload") + "-s"
            + std::to_string(seed) + ".json";
        write_trace(r.rec, path);
        std::printf("trace: %s (%zu spans)\n", path.c_str(), r.rec.log.size());
    }
    for (const auto& e : out.errors)
        std::fprintf(stderr, "check failed: %s\n", e.c_str());
    print_result(out, ms);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    if (argc >= 2 && std::string(argv[1]) == "selftest")
        return perfbench::selftest();
    if (argc < 2 || std::string(argv[1]) != "run" || argc % 2 != 0) {
        std::fprintf(stderr,
                     "usage: perfbench run --workload W --seed N --seconds S "
                     "--trace 0|1 --work-dir DIR --reorderd PATH\n"
                     "       perfbench selftest\n");
        return 2;
    }
    std::map<std::string, std::string> a;
    for (int i = 2; i + 1 < argc; i += 2)
        a[argv[i]] = argv[i + 1];
    try {
        for (const char* k : {"--workload", "--seed", "--seconds", "--trace",
                              "--work-dir", "--reorderd"})
            if (!a.count(k))
                throw std::invalid_argument(std::string("missing ") + k);
        return perfbench::run(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
