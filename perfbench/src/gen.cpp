#include "gen.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

void
shuffle(std::vector<std::uint32_t>& v, Rng& rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** Relabel the ids that occur in @p e by a random bijection onto
 *  [0, distinct ids). */
void
scramble(EdgeList& e, std::uint32_t id_space, Rng& rng)
{
    std::vector<std::uint32_t> used(id_space, 0);
    for (auto [u, v] : e)
        used[u] = used[v] = 1;
    const std::uint32_t n =
        static_cast<std::uint32_t>(std::count(used.begin(), used.end(), 1));
    std::vector<std::uint32_t> label(n);
    std::iota(label.begin(), label.end(), 0u);
    shuffle(label, rng);
    std::uint32_t next = 0;
    for (auto& x : used)
        x = x ? label[next++] : 0;
    for (auto& [u, v] : e) {
        u = used[u];
        v = used[v];
    }
}

struct UnionFind
{
    std::vector<std::uint32_t> p;
    explicit UnionFind(std::uint32_t n) : p(n) { std::iota(p.begin(), p.end(), 0u); }
    std::uint32_t find(std::uint32_t x)
    {
        while (p[x] != x)
            x = p[x] = p[p[x]];
        return x;
    }
    bool unite(std::uint32_t a, std::uint32_t b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return false;
        p[a] = b;
        return true;
    }
};

} // namespace

EdgeList
rmat_edges(int scale, int edge_factor, std::uint64_t seed)
{
    Rng rng(seed ^ 0x524d4154ULL);
    const std::uint64_t samples = std::uint64_t(edge_factor) << scale;
    EdgeList e;
    e.reserve(samples);
    for (std::uint64_t i = 0; i < samples; ++i) {
        std::uint32_t u = 0, v = 0;
        for (int l = 0; l < scale; ++l) {
            const double r = rng.uniform();
            const std::uint32_t bu = r >= 0.57 + 0.19; // quadrants c, d
            const std::uint32_t bv = (r >= 0.57 && r < 0.76) || r >= 0.95;
            u = (u << 1) | bu;
            v = (v << 1) | bv;
        }
        if (u != v)
            e.emplace_back(u, v);
    }
    scramble(e, std::uint32_t(1) << scale, rng);
    return e;
}

EdgeList
maze_edges(std::uint32_t width, std::uint32_t height, double extra_p,
           std::uint64_t seed)
{
    Rng rng(seed ^ 0x4d415a45ULL);
    const std::uint32_t n = width * height;
    // Grid edge k: vertex k/2, direction k%2 (0 right, 1 down).
    std::vector<std::uint32_t> order;
    order.reserve(2 * std::size_t(n));
    for (std::uint32_t v = 0; v < n; ++v) {
        if (v % width + 1 < width)
            order.push_back(2 * v);
        if (v / width + 1 < height)
            order.push_back(2 * v + 1);
    }
    shuffle(order, rng);
    std::vector<std::uint8_t> keep(2 * std::size_t(n), 0);
    UnionFind uf(n);
    for (std::uint32_t k : order) {
        const std::uint32_t v = k / 2;
        const std::uint32_t w = k % 2 ? v + width : v + 1;
        keep[k] = uf.unite(v, w) || rng.uniform() < extra_p;
    }
    EdgeList e;
    for (std::uint32_t v = 0; v < n; ++v) {
        if (keep[2 * std::size_t(v)])
            e.emplace_back(v, v + 1);
        if (keep[2 * std::size_t(v) + 1])
            e.emplace_back(v, v + width);
    }
    return e;
}

EdgeList
community_edges(std::uint32_t n, std::uint32_t block_size, int deg_in,
                int deg_out, std::uint64_t seed)
{
    Rng rng(seed ^ 0x434f4d4dULL);
    EdgeList e;
    e.reserve(std::size_t(n) * (deg_in + deg_out));
    for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t lo = v / block_size * block_size;
        const std::uint32_t size = std::min(block_size, n - lo);
        for (int i = 0; i < deg_in; ++i) {
            const auto w = lo + static_cast<std::uint32_t>(rng.below(size));
            if (w != v)
                e.emplace_back(v, w);
        }
        for (int i = 0; i < deg_out; ++i) {
            const auto w = static_cast<std::uint32_t>(rng.below(n));
            if (w != v)
                e.emplace_back(v, w);
        }
    }
    scramble(e, n, rng);
    // Write lines in a random order too, so first appearance is random.
    for (std::size_t i = e.size(); i > 1; --i)
        std::swap(e[i - 1], e[rng.below(i)]);
    return e;
}

std::pair<std::uint64_t, std::uint64_t>
count_distinct(const EdgeList& e)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(e.size());
    std::uint32_t max_id = 0;
    for (auto [u, v] : e) {
        if (u == v)
            continue;
        const auto a = std::min(u, v), b = std::max(u, v);
        keys.push_back(std::uint64_t(a) << 32 | b);
        max_id = std::max(max_id, b);
    }
    std::sort(keys.begin(), keys.end());
    const auto m = std::unique(keys.begin(), keys.end()) - keys.begin();
    std::vector<std::uint8_t> seen(e.empty() ? 0 : max_id + 1, 0);
    for (auto [u, v] : e)
        seen[u] = seen[v] = 1;
    const auto n = std::count(seen.begin(), seen.end(), 1);
    return {std::uint64_t(n), std::uint64_t(m)};
}

GeneratedInput
write_input(const std::string& dir, const std::string& name,
            const EdgeList& edges)
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    GeneratedInput in;
    in.path = dir + "/" + name + ".edges";
    const std::string meta = dir + "/" + name + ".meta";
    {
        std::ifstream mf(meta);
        if (mf >> in.n >> in.m && fs::exists(in.path))
            return in;
    }
    std::tie(in.n, in.m) = count_distinct(edges);
    const std::string tmp = in.path + ".tmp";
    {
        std::FILE* f = std::fopen(tmp.c_str(), "wb");
        if (!f)
            throw std::runtime_error("cannot write " + tmp);
        std::string buf;
        buf.reserve(1 << 20);
        char num[32];
        for (auto [u, v] : edges) {
            auto r = std::to_chars(num, num + sizeof num, u);
            buf.append(num, r.ptr);
            buf += ' ';
            r = std::to_chars(num, num + sizeof num, v);
            buf.append(num, r.ptr);
            buf += '\n';
            if (buf.size() > (1 << 20) - 64) {
                std::fwrite(buf.data(), 1, buf.size(), f);
                buf.clear();
            }
        }
        std::fwrite(buf.data(), 1, buf.size(), f);
        if (std::fclose(f) != 0)
            throw std::runtime_error("cannot write " + tmp);
    }
    fs::rename(tmp, in.path);
    std::ofstream(meta) << in.n << ' ' << in.m << '\n';
    return in;
}

EdgeList
read_compacted(const std::string& path, std::uint64_t* n_out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    const std::string text((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    std::unordered_map<std::uint64_t, std::uint32_t> id;
    auto intern = [&](std::uint64_t raw) {
        return id.emplace(raw, static_cast<std::uint32_t>(id.size()))
            .first->second;
    };
    EdgeList e;
    const char* p = text.data();
    const char* end = p + text.size();
    while (p < end) {
        std::uint64_t a = 0, b = 0;
        auto r = std::from_chars(p, end, a);
        if (r.ec != std::errc())
            throw std::runtime_error(path + ": unexpected text");
        p = r.ptr + 1;
        r = std::from_chars(p, end, b);
        if (r.ec != std::errc())
            throw std::runtime_error(path + ": unexpected text");
        p = r.ptr + 1;
        const auto u = intern(a), v = intern(b);
        if (u != v)
            e.emplace_back(std::min(u, v), std::max(u, v));
    }
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
    *n_out = id.size();
    return e;
}

} // namespace perfbench
