/**
 * @file
 * Isolated layer drives: each constructs one module's public classes
 * standalone and calls them with the workload's own inputs (its key
 * stream, store kind, address map, node and client counts), timing
 * the calls on the host clock.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "ddp/protocol_node.hh"
#include "ddp/xact_table.hh"
#include "kv/store.hh"
#include "mem/cache.hh"
#include "mem/memory_device.hh"
#include "mem/persist_image.hh"
#include "net/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "stats/counter.hh"
#include "stats/histogram.hh"
#include "workload/ycsb.hh"

namespace perfbench {

namespace {

/** Calls per per-call drive. */
constexpr std::size_t kCalls = 200000;
/** Repetitions of each per-call drive; the median is reported. */
constexpr int kReps = 3;

/** Keeps results alive so the optimizer cannot drop timed calls. */
volatile std::uint64_t sink;

/** Median over kReps of the host ns per call of @p body(kCalls). */
template <typename Fn>
double
nsPerCall(Fn &&body)
{
    std::vector<double> v;
    for (int r = 0; r < kReps; ++r) {
        Clock::time_point t0 = Clock::now();
        body(kCalls);
        v.push_back(secondsBetween(t0, Clock::now()) * 1e9 / kCalls);
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

double
msSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now()) * 1e3;
}

/** Everything the drives take from the workload's first unit. */
struct Inputs
{
    const cluster::ClusterConfig &cfg;
    std::uint32_t teams;
    std::uint32_t teamSize;
    std::uint32_t lines;
    std::vector<workload::Op> stream;
};

void
simDrive(const Workload &w, const Inputs &in, std::vector<Metric> &out)
{
    // schedule + step at the topology's steady pending depth.
    sim::EventQueue eq(in.cfg.queueImpl);
    sim::Pcg32 rng(in.cfg.seed, 11);
    std::vector<sim::Tick> gaps(4096);
    for (sim::Tick &g : gaps)
        g = (1 + rng.nextU32() % 2000) * sim::kNanosecond;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < w.pendingDepth; ++i)
        eq.schedule(gaps[i % gaps.size()], [&fired] { ++fired; });
    double ns = nsPerCall([&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            eq.schedule(eq.now() + gaps[i % gaps.size()],
                        [&fired] { ++fired; });
            eq.step();
        }
    });
    sink = fired;
    out.push_back({"sim.queue_op_ns", ns, "ns"});
}

void
statsDrive(const Pass &traced, const Inputs &in, std::vector<Metric> &out)
{
    std::vector<std::string> names;
    if (!traced.results.empty())
        for (const auto &kv : traced.results.front().counters)
            names.push_back(kv.first);
    if (names.empty())
        names.push_back("reads_completed");
    stats::CounterRegistry reg;
    out.push_back({"stats.counter_add_ns", nsPerCall([&](std::size_t n) {
                       for (std::size_t i = 0; i < n; ++i)
                           reg.add(names[i % names.size()]);
                   }),
                   "ns"});

    sim::Pcg32 rng(in.cfg.seed, 12);
    std::vector<std::uint64_t> samples(4096);
    for (std::uint64_t &s : samples)
        s = (200 + rng.nextU32() % 20000) * sim::kNanosecond;
    stats::Histogram h;
    out.push_back({"stats.hist_record_ns", nsPerCall([&](std::size_t n) {
                       for (std::size_t i = 0; i < n; ++i)
                           h.record(samples[i % samples.size()]);
                   }),
                   "ns"});
    sink = h.count();
}

void
workloadDrive(const Inputs &in, std::vector<Metric> &out)
{
    Clock::time_point t0 = Clock::now();
    std::vector<std::unique_ptr<workload::OpGenerator>> gens;
    for (std::uint32_t c = 0; c < in.cfg.totalClients(); ++c)
        gens.push_back(std::make_unique<workload::OpGenerator>(
            in.cfg.workload, in.cfg.seed, c));
    out.push_back({"workload.setup_ms", msSince(t0), "ms"});

    workload::OpGenerator &g = *gens.front();
    out.push_back({"workload.next_ns", nsPerCall([&](std::size_t n) {
                       std::uint64_t s = 0;
                       for (std::size_t i = 0; i < n; ++i)
                           s += g.next().key;
                       sink = s;
                   }),
                   "ns"});
}

void
ddpNetSetupDrive(const Inputs &in, std::vector<Metric> &out)
{
    // Fabric ctor x teams, then ProtocolNode ctor x nodes, wired as
    // Cluster wires them.
    sim::EventQueue eq(in.cfg.queueImpl);
    stats::CounterRegistry ctr;
    core::XactConflictTable xact;
    std::vector<std::unique_ptr<net::Fabric>> fabrics;
    Clock::time_point t0 = Clock::now();
    for (std::uint32_t t = 0; t < in.teams; ++t)
        fabrics.push_back(std::make_unique<net::Fabric>(
            eq, in.cfg.network, in.teamSize));
    out.push_back({"net.setup_ms", msSince(t0), "ms"});

    core::NodeParams np = in.cfg.node;
    np.model = in.cfg.model;
    np.numNodes = in.teamSize;
    np.replicationFactor = in.cfg.replicationFactor;
    np.keyCount = in.cfg.keyCount;
    std::vector<std::unique_ptr<core::ProtocolNode>> nodes;
    Clock::time_point t1 = Clock::now();
    for (std::uint32_t n = 0; n < in.cfg.numServers; ++n) {
        np.observerIdOffset = (n / in.teamSize) * in.teamSize;
        nodes.push_back(std::make_unique<core::ProtocolNode>(
            eq, *fabrics[n / in.teamSize], n % in.teamSize, np, ctr,
            &xact));
    }
    out.push_back({"ddp.setup_ms", msSince(t1), "ms"});
    nodes.clear();
}

void
memDrive(const Inputs &in, std::vector<Metric> &out)
{
    const core::NodeParams &np = in.cfg.node;
    {
        std::vector<std::unique_ptr<mem::CacheHierarchy>> caches;
        std::vector<std::unique_ptr<mem::MemoryDevice>> devs;
        std::vector<std::unique_ptr<mem::PersistImage>> images;
        Clock::time_point t0 = Clock::now();
        for (std::uint32_t n = 0; n < in.cfg.numServers; ++n) {
            caches.push_back(
                std::make_unique<mem::CacheHierarchy>(np.cacheParams));
            devs.push_back(std::make_unique<mem::MemoryDevice>(np.nvmParams));
            devs.push_back(
                std::make_unique<mem::MemoryDevice>(np.dramParams));
            images.push_back(std::make_unique<mem::PersistImage>(
                in.cfg.keyCount, in.lines, np.commitRecords));
        }
        out.push_back({"mem.setup_ms", msSince(t0), "ms"});
    }

    // Cache lookup, DRAM fill on a miss and an NVM write per write op,
    // over the key -> address map the protocol engine uses.
    mem::CacheHierarchy cache(np.cacheParams);
    mem::MemoryDevice dram(np.dramParams);
    mem::MemoryDevice nvm(np.nvmParams);
    sim::Tick now = 0;
    out.push_back({"mem.access_ns", nsPerCall([&](std::size_t n) {
                       for (std::size_t i = 0; i < n; ++i) {
                           const workload::Op &op =
                               in.stream[i % in.stream.size()];
                           std::uint64_t addr = op.key * 64 * in.lines;
                           now += 100 * sim::kNanosecond;
                           auto a = cache.access(addr);
                           sim::Tick t = now + a.latency;
                           if (!a.hit)
                               t = dram.read(t, addr);
                           if (op.type == workload::OpType::Write)
                               t = nvm.write(t, addr);
                           sink = t;
                       }
                   }),
                   "ns"});

    // Recovery over the whole key space: every key persisted once
    // through the value-line protocol, then a crash and a full replay.
    mem::PersistImage img(in.cfg.keyCount, in.lines, np.commitRecords);
    for (net::KeyId k = 0; k < in.cfg.keyCount; ++k) {
        net::Version v{1 + k % 7, 0};
        if (in.lines > 1) {
            img.beginWrite(k, v);
            for (std::uint32_t l = 0; l < in.lines; ++l)
                img.lineWritten(k);
            img.commitWrite(k);
        } else {
            img.atomicPersist(k, v);
        }
    }
    img.crash();
    Clock::time_point t1 = Clock::now();
    std::uint64_t s = 0;
    for (net::KeyId k = 0; k < in.cfg.keyCount; ++k)
        s += img.recover(k).version.number;
    sink = s;
    out.push_back({"mem.recover_ms", msSince(t1), "ms"});
}

void
kvDrive(const Inputs &in, std::vector<Metric> &out)
{
    kv::StoreKind kind = in.cfg.node.storeKind;
    std::uint64_t owned = in.cfg.keyCount / in.teams;
    {
        std::vector<std::unique_ptr<kv::Store>> stores;
        Clock::time_point t0 = Clock::now();
        for (std::uint32_t n = 0; n < in.cfg.numServers; ++n) {
            stores.push_back(kv::makeStore(kind));
            net::KeyId lo = (n / in.teamSize) * owned;
            for (net::KeyId k = lo; k < lo + owned; ++k)
                stores.back()->put(k, 1);
        }
        out.push_back({"kv.setup_ms", msSince(t0), "ms"});
    }

    std::unique_ptr<kv::Store> store = kv::makeStore(kind);
    for (net::KeyId k = 0; k < in.cfg.keyCount; ++k)
        store->put(k, 1);
    out.push_back({"kv.get_ns", nsPerCall([&](std::size_t n) {
                       std::uint64_t s = 0;
                       kv::Value v = 0;
                       for (std::size_t i = 0; i < n; ++i)
                           s += store->get(in.stream[i % in.stream.size()].key,
                                           v)
                                    ? v
                                    : 0;
                       sink = s;
                   }),
                   "ns"});
    out.push_back({"kv.put_ns", nsPerCall([&](std::size_t n) {
                       for (std::size_t i = 0; i < n; ++i)
                           store->put(in.stream[i % in.stream.size()].key, i);
                   }),
                   "ns"});

    // Per visited key of ordered scans starting at the stream's keys;
    // 0 for a store without ordered scans.
    double scan_ns = 0.0;
    if (store->ordered()) {
        std::uint32_t max_len = std::max(1u, in.cfg.workload.maxScanLen);
        std::vector<double> v;
        for (int r = 0; r < kReps; ++r) {
            std::uint64_t visited = 0;
            Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < kCalls / max_len; ++i) {
                net::KeyId lo = in.stream[i % in.stream.size()].key;
                visited += store->rangeScan(
                    lo, lo + 1 + i % max_len,
                    [](kv::KeyId, kv::Value) {});
            }
            v.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                        static_cast<double>(std::max<std::uint64_t>(
                            visited, 1)));
        }
        std::sort(v.begin(), v.end());
        scan_ns = v[v.size() / 2];
    }
    out.push_back({"kv.scan_key_ns", scan_ns, "ns"});
}

void
netDrive(const Inputs &in, std::vector<Metric> &out)
{
    // send -> deliver through one team's fabric, 64 messages per drain
    // of the queue.
    sim::EventQueue eq(in.cfg.queueImpl);
    net::Fabric fabric(eq, in.cfg.network, in.teamSize);
    std::uint64_t delivered = 0;
    for (net::NodeId n = 0; n < in.teamSize; ++n)
        fabric.attach(n, [&delivered](const net::Message &) {
            ++delivered;
        });
    out.push_back({"net.send_ns", nsPerCall([&](std::size_t n) {
                       for (std::size_t i = 0; i < n;) {
                           for (std::size_t j = 0; j < 64 && i < n;
                                ++j, ++i) {
                               net::Message m;
                               m.type = net::MsgType::Inv;
                               m.src = static_cast<net::NodeId>(
                                   i % in.teamSize);
                               m.dst = static_cast<net::NodeId>(
                                   (i + 1) % in.teamSize);
                               m.key = in.stream[i % in.stream.size()].key;
                               m.hasData = true;
                               m.dataLines = in.lines;
                               fabric.send(std::move(m));
                           }
                           eq.run();
                       }
                   }),
                   "ns"});
    sink = delivered;
}

void
shardDrive(const Pass &traced, const Inputs &in, std::vector<Metric> &out)
{
    // The layout the run ended with (splits and migrations applied);
    // one range for an unsharded cluster.
    shard::ShardLayout layout =
        traced.lastLayout.numRanges() > 0
            ? traced.lastLayout
            : shard::ShardLayout::makeInitial(in.cfg.keyCount, 1);
    out.push_back({"shard.lookup_ns", nsPerCall([&](std::size_t n) {
                       std::uint64_t s = 0;
                       for (std::size_t i = 0; i < n; ++i)
                           s += layout.teamFor(
                               in.stream[i % in.stream.size()].key);
                       sink = s;
                   }),
                   "ns"});
}

} // namespace

void
isolatedLayerMetrics(const Workload &w, const Pass &traced, Spans *spans,
                     std::vector<Metric> &out)
{
    const cluster::ClusterConfig &cfg = w.units.front().cfg;
    std::uint32_t teams = cfg.numShards > 0 ? cfg.numShards : 1;
    Inputs in{cfg, teams, cfg.numServers / teams,
              std::max(1u, cfg.node.valueLines), {}};
    {
        workload::OpGenerator gen(cfg.workload, cfg.seed, 0);
        in.stream.resize(1u << 16);
        for (workload::Op &op : in.stream)
            op = gen.next();
    }
    {
        Span s(spans, "isolated sim");
        simDrive(w, in, out);
    }
    {
        Span s(spans, "isolated stats");
        statsDrive(traced, in, out);
    }
    {
        Span s(spans, "isolated workload");
        workloadDrive(in, out);
    }
    {
        Span s(spans, "isolated ddp+net setup");
        ddpNetSetupDrive(in, out);
    }
    {
        Span s(spans, "isolated mem");
        memDrive(in, out);
    }
    {
        Span s(spans, "isolated kv");
        kvDrive(in, out);
    }
    {
        Span s(spans, "isolated net");
        netDrive(in, out);
    }
    {
        Span s(spans, "isolated shard");
        shardDrive(traced, in, out);
    }
}

} // namespace perfbench
