/**
 * @file
 * Unit tests for the phi-accrual failure detector and its integration
 * with the RecoveryAgent: estimate convergence, suspicion hysteresis
 * (no thrash on flapping peers), the suspected-peer fast path that
 * skips targeted retries, and the guard that keeps a flapping detector
 * from double-starting a recovery coordination.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ddp/recovery.hh"
#include "net/message.hh"
#include "sim/event_queue.hh"

using namespace ddp;
using namespace ddp::core;
using net::KeyId;
using net::Message;
using net::MsgType;
using net::NodeId;
using net::Version;
using sim::kMicrosecond;
using sim::kMillisecond;
using sim::Tick;

// --------------------------------------------------------------------------
// PhiAccrualDetector
// --------------------------------------------------------------------------

TEST(PhiAccrual, BootstrapPriorUntilMinSamples)
{
    PhiAccrualDetector d(2);
    EXPECT_FALSE(d.hasEstimate(0));
    // The prior keeps the estimator usable from sample zero.
    EXPECT_EQ(d.meanEstimate(0), 50 * kMicrosecond);
    EXPECT_GT(d.p99Estimate(0), 50 * kMicrosecond);

    for (int i = 0; i < 7; ++i)
        d.observe(0, 10 * kMicrosecond);
    EXPECT_FALSE(d.hasEstimate(0));
    d.observe(0, 10 * kMicrosecond);
    EXPECT_TRUE(d.hasEstimate(0));
    EXPECT_FALSE(d.hasEstimate(1)) << "per-peer state must not bleed";
}

TEST(PhiAccrual, P99IsMeanPlusSigmaWithFloor)
{
    PhiAccrualDetector d(1);
    for (int i = 0; i < 64; ++i)
        d.observe(0, 10 * kMicrosecond);
    // Identical samples: sigma hits the 10%-of-mean floor, so
    // p99 = mean + 2.326 * 0.1 * mean = 12.326 us.
    EXPECT_NEAR(static_cast<double>(d.meanEstimate(0)), 10.0e6, 1e3);
    EXPECT_NEAR(static_cast<double>(d.p99Estimate(0)), 12.326e6, 5e3);
}

TEST(PhiAccrual, WindowEvictsOldSamples)
{
    PhiAccrualDetector d(1);
    for (int i = 0; i < 64; ++i)
        d.observe(0, 100 * kMicrosecond);
    for (int i = 0; i < 64; ++i)
        d.observe(0, 10 * kMicrosecond);
    // The ring fully turned over: the old 100us regime must be gone.
    EXPECT_NEAR(static_cast<double>(d.meanEstimate(0)), 10.0e6, 1e3);
}

TEST(PhiAccrual, SteadyHeartbeatsStayTrusted)
{
    PhiAccrualDetector d(2);
    Tick t = 0;
    for (int i = 0; i < 30; ++i) {
        t += 10 * kMicrosecond;
        d.heartbeat(0, t);
    }
    EXPECT_TRUE(d.hasEstimate(0));
    // Right at the expected gap, suspicion is minimal.
    EXPECT_LT(d.phi(0, 10 * kMicrosecond), 1.0);
    EXPECT_FALSE(d.suspected(0, t + 10 * kMicrosecond));
    EXPECT_EQ(d.suspectTransitions(), 0u);
}

TEST(PhiAccrual, SilenceRaisesPhiAndHysteresisAvoidsThrash)
{
    PhiAccrualDetector d(2);
    Tick t = 0;
    for (int i = 0; i < 30; ++i) {
        t += 10 * kMicrosecond;
        d.heartbeat(0, t);
    }

    // A silent millisecond against a 10us cadence is overwhelming
    // evidence: phi far beyond the suspect threshold.
    EXPECT_GT(d.phi(0, 1 * kMillisecond), 8.0);
    EXPECT_TRUE(d.suspected(0, t + 1 * kMillisecond));
    EXPECT_EQ(d.suspectTransitions(), 1u);
    EXPECT_TRUE(d.lastVerdict(0));

    // Re-evaluating while still silent must not re-count the
    // transition — that is exactly the thrash hysteresis prevents.
    EXPECT_TRUE(d.suspected(0, t + 2 * kMillisecond));
    EXPECT_TRUE(d.suspected(0, t + 3 * kMillisecond));
    EXPECT_EQ(d.suspectTransitions(), 1u);

    // Fresh traffic rehabilitates the peer (elapsed resets, phi ~ 0).
    d.heartbeat(0, t + 3 * kMillisecond);
    EXPECT_FALSE(d.lastVerdict(0));
    EXPECT_EQ(d.trustTransitions(), 1u);

    // A second flap counts once more, not once per evaluation.
    EXPECT_TRUE(d.suspected(0, t + 13 * kMillisecond));
    EXPECT_TRUE(d.suspected(0, t + 14 * kMillisecond));
    EXPECT_EQ(d.suspectTransitions(), 2u);
}

TEST(PhiAccrual, HeartbeatFastPathMatchesFullVerdict)
{
    // heartbeat() skips the phi evaluation for trusted peers whenever
    // suspectPhi lies above the largest phi elapsed 0 can produce.
    // Replay one randomized trace into two detectors, forcing the full
    // verdict on the reference after every heartbeat: verdicts and
    // transition counts must agree at every step.
    std::vector<PhiAccrualDetector::Tuning> tunings(4);
    tunings[1].suspectPhi = 0.15; // below the elapsed-0 bound
    tunings[1].trustPhi = 0.05;
    tunings[2].suspectPhi = -std::log10(0.5); // exactly at it
    tunings[2].trustPhi = 0.05;
    // A tiny window fills with zero gaps: mean = sigma = 0, phi NaN.
    tunings[3].windowSize = 4;
    tunings[3].minSamples = 2;
    for (std::size_t ti = 0; ti < tunings.size(); ++ti) {
        SCOPED_TRACE("tuning " + std::to_string(ti));
        constexpr std::uint32_t kPeers = 3;
        PhiAccrualDetector fast(kPeers, tunings[ti]);
        PhiAccrualDetector full(kPeers, tunings[ti]);
        std::vector<Tick> clock(kPeers, 0);
        std::uint64_t rng = 0x9e1f + ti;
        auto next = [&rng] {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            return static_cast<std::uint32_t>(rng >> 33);
        };
        for (int i = 0; i < 6000; ++i) {
            NodeId peer = next() % kPeers;
            // Alternate a regular regime (sigma near its floor, phi
            // near 0 on arrival) with a bursty one (same-tick gaps
            // plus long silences: sigma several times the mean, so
            // arrival phi approaches the bound).
            bool bursty = (i / 600) % 2 == 1;
            std::uint32_t kind = next() % 16;
            Tick gap = !bursty ? (8 + next() % 5) * kMicrosecond
                       : kind < 8 ? 0
                       : kind < 14
                           ? (5 + next() % 10) * kMicrosecond
                           : (200 + next() % 2000) * kMicrosecond;
            clock[peer] += gap;
            if (next() % 8 == 0) {
                // A silence probe before the next arrival: how a peer
                // becomes suspect at the default tuning, so heartbeats
                // have suspects to rehabilitate.
                Tick probe = clock[peer] + next() % (3 * gap + 1);
                ASSERT_EQ(fast.suspected(peer, probe),
                          full.suspected(peer, probe));
                clock[peer] = probe;
            }
            fast.heartbeat(peer, clock[peer]);
            full.heartbeat(peer, clock[peer]);
            full.suspected(peer, clock[peer]);
            ASSERT_EQ(fast.lastVerdict(peer), full.lastVerdict(peer))
                << "step " << i;
            ASSERT_EQ(fast.suspectTransitions(),
                      full.suspectTransitions()) << "step " << i;
            ASSERT_EQ(fast.trustTransitions(), full.trustTransitions())
                << "step " << i;
        }
        // The trace must actually exercise both transitions.
        EXPECT_GT(full.suspectTransitions(), 0u);
        EXPECT_GT(full.trustTransitions(), 0u);
    }
}

TEST(PhiAccrual, NeverHeardPeerIsNotSuspected)
{
    // No evidence either way: a peer that never spoke must not be
    // declared dead (it may simply have nothing to say).
    PhiAccrualDetector d(2);
    EXPECT_EQ(d.phi(1, 5 * kMillisecond), 0.0);
    EXPECT_FALSE(d.suspected(1, 5 * kMillisecond));
    EXPECT_EQ(d.suspectTransitions(), 0u);
}

// --------------------------------------------------------------------------
// RecoveryAgent + detector integration
// --------------------------------------------------------------------------

namespace {

/**
 * A coordinator wired to in-memory hooks with real EventQueue timers
 * (unlike recovery_edge_test's DirectAgent, which disables timeouts)
 * plus a test-controlled peerSuspected verdict — the pieces the
 * detector fast path and the flapping-membership guard live in.
 */
struct TimerAgent
{
    sim::EventQueue eq;
    std::map<KeyId, Version> store;
    std::vector<std::pair<NodeId, Message>> outbox;
    std::set<NodeId> suspectedPeers;
    std::unique_ptr<RecoveryAgent> agent;

    TimerAgent(NodeId self, std::uint32_t num_nodes,
               RecoveryAgent::Tuning tuning)
    {
        RecoveryAgent::Hooks h;
        h.persistedVersion = [this](KeyId k) {
            auto it = store.find(k);
            return it == store.end() ? Version{} : it->second;
        };
        h.install = [this](KeyId k, Version v) { store[k] = v; };
        h.send = [this](NodeId to, Message m) {
            outbox.emplace_back(to, std::move(m));
        };
        h.broadcast = [this, num_nodes, self](Message m) {
            for (NodeId n = 0; n < num_nodes; ++n) {
                if (n != self)
                    outbox.emplace_back(n, m);
            }
        };
        h.now = [this] { return eq.now(); };
        h.startTimer = [this](Tick delay, std::function<void()> fn) {
            return eq.scheduleTimerIn(delay, std::move(fn));
        };
        h.cancelTimer = [this](sim::TimerId id) { eq.cancelTimer(id); };
        h.peerSuspected = [this](NodeId n) {
            return suspectedPeers.count(n) > 0;
        };
        agent = std::make_unique<RecoveryAgent>(self, num_nodes,
                                                std::move(h), tuning);
    }

    static Message
    summary(NodeId src, const Message &q,
            const std::vector<Version> &versions)
    {
        Message s;
        s.type = MsgType::RecSummary;
        s.src = src;
        s.key = q.key;
        s.scopeId = q.scopeId;
        s.opId = q.opId;
        for (Version v : versions)
            s.cauhist.push_back(RecoveryAgent::pack(v));
        return s;
    }
};

} // namespace

TEST(DetectorRecovery, SuspectedPeerSkipsTargetedRetries)
{
    RecoveryAgent::Tuning tuning;
    tuning.batchTimeout = 20 * kMicrosecond;
    tuning.maxRetries = 3;
    TimerAgent t(0, 3, tuning);
    t.suspectedPeers.insert(2);

    std::optional<RecoveryReport> report;
    t.agent->startCoordinator(
        4, 4, [&](const RecoveryReport &r) { report = r; });
    ASSERT_EQ(t.outbox.size(), 2u); // queries to 1 and 2
    Message q = t.outbox[0].second;
    t.outbox.clear();

    // Node 1 answers; node 2 (suspected) stays silent.
    t.agent->onMessage(TimerAgent::summary(1, q, {Version{}, Version{},
                                                  Version{}, Version{}}));
    EXPECT_FALSE(report.has_value());
    t.eq.run();

    ASSERT_TRUE(report.has_value()) << "coordinator hung";
    // The detector verdict replaces the retry evidence: one timeout,
    // zero targeted retries, node 2 declared unreachable right away.
    EXPECT_EQ(report->timeouts, 1u);
    EXPECT_EQ(report->retries, 0u);
    EXPECT_EQ(report->unreachable, std::vector<NodeId>{2});
    EXPECT_EQ(report->quorumBatches, 1u);
    EXPECT_EQ(report->quorumFailures, 0u);
    EXPECT_FALSE(t.agent->active());
}

TEST(DetectorRecovery, UnsuspectedSilenceStillPaysTheRetries)
{
    // Same silence, but the detector does not vouch for node 2 being
    // dead: the coordinator must fall back to the full targeted-retry
    // ladder before declaring it unreachable.
    RecoveryAgent::Tuning tuning;
    tuning.batchTimeout = 20 * kMicrosecond;
    tuning.maxRetries = 2;
    TimerAgent t(0, 3, tuning);

    std::optional<RecoveryReport> report;
    t.agent->startCoordinator(
        4, 4, [&](const RecoveryReport &r) { report = r; });
    Message q = t.outbox[0].second;
    t.outbox.clear();
    t.agent->onMessage(TimerAgent::summary(1, q, {Version{}, Version{},
                                                  Version{}, Version{}}));
    t.eq.run();

    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->retries, 2u);
    EXPECT_GT(report->timeouts, 1u);
    EXPECT_EQ(report->unreachable, std::vector<NodeId>{2});
}

TEST(DetectorRecovery, FlappingSuspicionDoesNotDoubleStartRecovery)
{
    RecoveryAgent::Tuning tuning;
    tuning.batchTimeout = 20 * kMicrosecond;
    tuning.maxRetries = 1;
    TimerAgent t(0, 3, tuning);

    int reports = 0;
    std::optional<RecoveryReport> last;
    auto done = [&](const RecoveryReport &r) {
        ++reports;
        last = r;
    };
    t.agent->startCoordinator(8, 4, done);
    ASSERT_TRUE(t.agent->active());
    std::size_t queries_after_start = t.outbox.size();

    // A flapping detector (suspect -> trust -> suspect) re-triggers
    // whatever membership logic reacts to suspicion; if that logic
    // calls startCoordinator again mid-flight, it must be a no-op —
    // no duplicate query rounds, no orphaned batches.
    t.suspectedPeers.insert(2);
    t.agent->startCoordinator(8, 4, done);
    t.suspectedPeers.erase(2);
    t.suspectedPeers.insert(2);
    t.agent->startCoordinator(8, 4, done);
    EXPECT_EQ(t.outbox.size(), queries_after_start)
        << "restart while active must not re-query";

    // Answer everything; drive timers for the suspected node 2.
    std::vector<Message> queries;
    for (auto &[to, m] : t.outbox) {
        if (to == 1 && m.type == MsgType::RecQuery)
            queries.push_back(m);
    }
    for (const Message &q : queries) {
        std::vector<Version> vs(q.scopeId, Version{});
        t.agent->onMessage(TimerAgent::summary(1, q, vs));
    }
    t.eq.run();

    ASSERT_EQ(reports, 1) << "exactly one coordination may complete";
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->batches, 2u) << "8 keys / batch 4";
    EXPECT_FALSE(t.agent->active()) << "leaked in-flight batches";

    // The agent is reusable after completion: a fresh coordination
    // (e.g. the detector re-suspecting after recovery) runs cleanly.
    t.outbox.clear();
    t.agent->startCoordinator(4, 4, done);
    for (auto &[to, m] : t.outbox) {
        if (to == 1 && m.type == MsgType::RecQuery) {
            std::vector<Version> vs(m.scopeId, Version{});
            t.agent->onMessage(TimerAgent::summary(1, m, vs));
        }
    }
    t.eq.run();
    EXPECT_EQ(reports, 2);
    EXPECT_FALSE(t.agent->active());
}
