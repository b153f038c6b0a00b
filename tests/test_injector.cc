/**
 * @file
 * Unit tests driving a single Injector: padding, timeout/kill,
 * retransmission order, credits, commit.
 */

#include <gtest/gtest.h>

#include "src/nic/injector.hh"
#include "src/nic/padding.hh"
#include "src/sim/snapshot.hh"

namespace crnet {
namespace {

class InjectorTest : public ::testing::Test
{
  protected:
    InjectorTest() { rebuild(); }

    void
    rebuild()
    {
        topo = std::make_unique<TorusTopology>(4, 2);
        faults = std::make_unique<FaultModel>(*topo, 0.0, Rng(1));
        algo = std::make_unique<MinimalAdaptiveRouting>(
            *topo, *faults, cfg.numVcs);
        stats = std::make_unique<NetworkStats>();
        refStats = std::make_unique<NetworkStats>();
        // Both injectors serve node 0, from slices 0 and 1 of one pool.
        inj.reset();
        ref.reset();
        pool = std::make_unique<Injector::StatePool>(cfg, 2);
        inj = std::make_unique<Injector>(0, cfg, *topo, *algo,
                                         stats.get(), Rng(2), *pool, 0);
        ref = std::make_unique<Injector>(0, cfg, *topo, *algo,
                                         refStats.get(), Rng(2), *pool,
                                         1);
    }

    PendingMessage
    msgTo(NodeId dst, std::uint32_t len, std::uint32_t seq = 0)
    {
        PendingMessage m;
        m.id = nextId++;
        m.src = 0;
        m.dst = dst;
        m.payloadLen = len;
        m.createdAt = now;
        m.pairSeq = seq;
        m.measured = true;
        return m;
    }

    /** Tick and return flits emitted this cycle. */
    std::vector<InjectedFlit>
    step()
    {
        inj->tick(now++);
        return {inj->sent.begin(), inj->sent.end()};
    }

    /**
     * Tick `inj` and, from the same state, a reference injector that
     * restores a snapshot of `inj` before every tick. The admission
     * memo is derived state a restore resets, so the reference scans
     * its queue in full every cycle; both must emit the same flits.
     */
    std::vector<InjectedFlit>
    stepVsMemoFree()
    {
        StateWriter w;
        inj->serialize(w);
        StateReader r(w.bytes());
        ref->serialize(r);
        inj->tick(now);
        ref->tick(now);
        ++now;
        EXPECT_EQ(inj->sent.size(), ref->sent.size()) << "cycle " << now - 1;
        for (std::size_t i = 0;
             i < std::min(inj->sent.size(), ref->sent.size()); ++i) {
            const InjectedFlit& a = inj->sent[i];
            const InjectedFlit& b = ref->sent[i];
            EXPECT_EQ(a.injChannel, b.injChannel);
            EXPECT_EQ(a.vc, b.vc);
            EXPECT_EQ(a.flit.msg, b.flit.msg) << "cycle " << now - 1;
            EXPECT_EQ(a.flit.seq, b.flit.seq);
            EXPECT_EQ(a.flit.type, b.flit.type);
        }
        return {inj->sent.begin(), inj->sent.end()};
    }

    /** True when an injection slot is transmitting message `id`. */
    bool
    started(MsgId id) const
    {
        for (std::uint32_t ch = 0; ch < cfg.injectionChannels; ++ch)
            for (VcId vc = 0; vc < cfg.numVcs; ++vc)
                if (inj->slotProbe(ch, vc).msg == id)
                    return true;
        return false;
    }

    /** Return the credits of flits headed for `dst` (instant drain). */
    void
    drainTo(const std::vector<InjectedFlit>& sent, NodeId dst)
    {
        for (const InjectedFlit& f : sent)
            if (f.flit.dst == dst && !f.flit.isKill())
                inj->acceptCredit(f.injChannel, f.vc);
    }

    SimConfig cfg;  // Defaults: torus 16x16 ignored; injector only
                    // uses vcs/depth/channels/protocol/timeout.
    std::unique_ptr<TorusTopology> topo;
    std::unique_ptr<FaultModel> faults;
    std::unique_ptr<MinimalAdaptiveRouting> algo;
    std::unique_ptr<NetworkStats> stats;
    std::unique_ptr<Injector::StatePool> pool;
    std::unique_ptr<Injector> inj;
    std::unique_ptr<NetworkStats> refStats;
    std::unique_ptr<Injector> ref;
    Cycle now = 0;
    MsgId nextId = 100;
};

TEST_F(InjectorTest, EmitsWormInOrderWithPadsAndTail)
{
    // dst 5 = (1,1): 2 hops. CR wire = capacity(2,2)+slack =
    // (2+2)*2+2+2+2 = 14.
    inj->enqueue(msgTo(5, 4));
    std::vector<Flit> flits;
    for (int i = 0; i < 40; ++i) {
        for (const auto& f : step()) {
            flits.push_back(f.flit);
            inj->acceptCredit(f.injChannel, f.vc);  // Instant drain.
        }
    }
    const std::uint32_t wire = wireLength(ProtocolKind::Cr, 4, 2, 2, 2);
    ASSERT_EQ(flits.size(), wire);
    EXPECT_EQ(flits.front().type, FlitType::Head);
    EXPECT_EQ(flits.back().type, FlitType::Tail);
    for (std::uint32_t i = 0; i < wire; ++i) {
        EXPECT_EQ(flits[i].seq, i);
        EXPECT_TRUE(flits[i].checksumOk());
        if (i > 0 && i < 4) {
            EXPECT_EQ(flits[i].type, FlitType::Body);
        }
        if (i >= 4 && i + 1 < wire) {
            EXPECT_EQ(flits[i].type, FlitType::Pad);
        }
    }
    EXPECT_EQ(stats->messagesCommitted.value(), 1u);
    EXPECT_EQ(stats->padFlitsInjected.value(), wire - 5);
    EXPECT_TRUE(inj->idle());
}

TEST_F(InjectorTest, NextEventCycleTracksQueueMinExactly)
{
    // Empty and idle: no deadline at all.
    EXPECT_EQ(inj->nextEventCycle(0), kNeverCycle);

    // The incremental queue minimum must be exact (identical to a
    // full rescan) through out-of-order pushes...
    PendingMessage m1 = msgTo(5, 4);
    m1.notBefore = 100;
    PendingMessage m2 = msgTo(6, 4);
    m2.notBefore = 20;
    PendingMessage m3 = msgTo(9, 4);
    m3.notBefore = 160;
    inj->enqueue(m1);
    EXPECT_EQ(inj->nextEventCycle(0), 100u);
    inj->enqueue(m2);
    EXPECT_EQ(inj->nextEventCycle(0), 20u);
    inj->enqueue(m3);
    EXPECT_EQ(inj->nextEventCycle(0), 20u);

    // A due message pins the wake to the very next cycle.
    EXPECT_EQ(inj->nextEventCycle(25), 26u);

    // ...and through erase-of-min: from cycle 20, m2 starts (erasing
    // the queue minimum) and commits under instant credit drain.
    now = 20;
    bool sawActive = false;
    for (int i = 0; i < 40; ++i) {
        for (const auto& f : step())
            inj->acceptCredit(f.injChannel, f.vc);
        if (!sawActive && stats->messagesCommitted.value() == 0) {
            // Mid-worm, the injector demands every cycle.
            EXPECT_EQ(inj->nextEventCycle(now), now + 1);
            sawActive = true;
        }
    }
    EXPECT_TRUE(sawActive);
    EXPECT_EQ(stats->messagesCommitted.value(), 1u);
    // The recomputed minimum fell back to m1's 100 — not m2's stale
    // 20, and not kNeverCycle.
    EXPECT_EQ(inj->nextEventCycle(now), 100u);
}

TEST_F(InjectorTest, RespectsCreditsFromRouter)
{
    inj->enqueue(msgTo(5, 4));
    // bufferDepth = 2 credits; no returns: exactly 2 flits emitted.
    int emitted = 0;
    for (int i = 0; i < 10; ++i)
        emitted += static_cast<int>(step().size());
    EXPECT_EQ(emitted, 2);
}

TEST_F(InjectorTest, StallTimeoutKillsAndRetries)
{
    cfg.timeout = 8;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 4;
    rebuild();
    inj->enqueue(msgTo(5, 4));
    // Emit 2 flits, then never credit: injection stalls, timeout
    // fires, a kill token is emitted on the channel.
    bool saw_kill = false;
    for (int i = 0; i < 30 && !saw_kill; ++i) {
        for (const auto& f : step())
            saw_kill |= f.flit.isKill();
    }
    EXPECT_TRUE(saw_kill);
    EXPECT_EQ(stats->sourceKills.value(), 1u);
    EXPECT_FALSE(inj->idle());  // Retry is queued.

    // After the gap, the retry re-emits the head with attempt = 1.
    bool saw_retry_head = false;
    for (int i = 0; i < 30 && !saw_retry_head; ++i) {
        for (const auto& f : step()) {
            if (f.flit.isHead()) {
                EXPECT_EQ(f.flit.attempt, 1u);
                saw_retry_head = true;
            }
            inj->acceptCredit(f.injChannel, f.vc);
        }
    }
    EXPECT_TRUE(saw_retry_head);
}

TEST_F(InjectorTest, TimeoutOnlyArmsAfterFirstFlit)
{
    cfg.timeout = 4;
    rebuild();
    // Two messages to the same destination: the second waits (busy
    // destination) and must NOT time out while waiting.
    inj->enqueue(msgTo(5, 4, 0));
    inj->enqueue(msgTo(5, 4, 1));
    for (int i = 0; i < 50; ++i)
        step();  // No credits: first worm stalls and gets killed;
                 // second never starts, never "times out" silently.
    EXPECT_GE(stats->sourceKills.value(), 1u);
    // Kills only from the started worm; aborted count stays 0.
    EXPECT_EQ(stats->abortedByBkill.value(), 0u);
}

TEST_F(InjectorTest, IminSchemeAlsoDetectsStall)
{
    cfg.timeoutScheme = TimeoutScheme::SourceImin;
    cfg.timeout = 8;
    rebuild();
    inj->enqueue(msgTo(5, 8));
    bool saw_kill = false;
    for (int i = 0; i < 60 && !saw_kill; ++i)
        for (const auto& f : step())
            saw_kill |= f.flit.isKill();
    EXPECT_TRUE(saw_kill);
}

TEST_F(InjectorTest, PathWideSchemeNeverSourceKills)
{
    cfg.timeoutScheme = TimeoutScheme::PathWide;
    cfg.timeout = 4;
    rebuild();
    inj->enqueue(msgTo(5, 4));
    for (int i = 0; i < 60; ++i)
        step();
    EXPECT_EQ(stats->sourceKills.value(), 0u);
}

TEST_F(InjectorTest, AbortRequeuesAndCooldownResetsCredits)
{
    inj->enqueue(msgTo(5, 4));
    step();  // Head emitted (credit consumed).
    const MsgId id = nextId - 1;
    inj->acceptAbort(0, 0, id);
    step();
    EXPECT_EQ(stats->abortedByBkill.value(), 1u);
    // Retry must eventually re-emit with a full credit window.
    bool saw_head = false;
    int emitted_before_credit = 0;
    for (int i = 0; i < 40; ++i) {
        for (const auto& f : step()) {
            if (f.flit.isHead())
                saw_head = true;
            ++emitted_before_credit;
        }
    }
    EXPECT_TRUE(saw_head);
    EXPECT_EQ(emitted_before_credit, 2);  // Full bufferDepth restored.
}

TEST_F(InjectorTest, PerDestinationOrderIsPreserved)
{
    cfg.timeout = 8;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 2;
    rebuild();
    inj->enqueue(msgTo(5, 4, 0));
    inj->enqueue(msgTo(5, 4, 1));
    // Let worms flow freely; the second must only start after the
    // first commits, and heads must appear in pairSeq order.
    std::vector<std::uint32_t> head_seqs;
    for (int i = 0; i < 100; ++i) {
        for (const auto& f : step()) {
            if (f.flit.isHead())
                head_seqs.push_back(f.flit.pairSeq);
            inj->acceptCredit(f.injChannel, f.vc);
        }
    }
    ASSERT_EQ(head_seqs.size(), 2u);
    EXPECT_EQ(head_seqs[0], 0u);
    EXPECT_EQ(head_seqs[1], 1u);
    EXPECT_EQ(stats->messagesCommitted.value(), 2u);
}

TEST_F(InjectorTest, DifferentDestinationsDontBlockEachOther)
{
    cfg.numVcs = 2;  // Two worms in flight on one channel.
    rebuild();
    inj->enqueue(msgTo(5, 4, 0));
    inj->enqueue(msgTo(6, 4, 0));
    std::vector<NodeId> head_dsts;
    for (int i = 0; i < 100; ++i) {
        for (const auto& f : step()) {
            if (f.flit.isHead())
                head_dsts.push_back(f.flit.dst);
            inj->acceptCredit(f.injChannel, f.vc);
        }
    }
    ASSERT_EQ(head_dsts.size(), 2u);
    // Both start long before either commits (interleaved worms).
    EXPECT_EQ(inj->activeWorms(), 0u);
    EXPECT_EQ(stats->messagesCommitted.value(), 2u);
}

TEST_F(InjectorTest, QueueBoundDropsExcess)
{
    cfg.maxPendingPerNode = 2;
    rebuild();
    EXPECT_TRUE(inj->enqueue(msgTo(5, 4)));
    EXPECT_TRUE(inj->enqueue(msgTo(6, 4)));
    EXPECT_FALSE(inj->enqueue(msgTo(7, 4)));
    EXPECT_EQ(stats->sourceQueueDrops.value(), 1u);
}

TEST_F(InjectorTest, MaxRetriesGivesUp)
{
    cfg.maxRetries = 2;
    cfg.timeout = 4;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 2;
    rebuild();
    inj->enqueue(msgTo(5, 4));
    for (int i = 0; i < 300; ++i)
        step();  // Never credit: kills forever until the cap.
    EXPECT_EQ(stats->messagesFailed.value(), 1u);
    EXPECT_EQ(stats->measuredFailed.value(), 1u);
    EXPECT_TRUE(inj->idle());
}

TEST_F(InjectorTest, MisrouteBudgetGrantedAfterConfiguredRetries)
{
    cfg.misrouteAfterRetries = 2;
    cfg.misrouteBudget = 3;
    cfg.timeout = 4;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 2;
    rebuild();
    inj->enqueue(msgTo(5, 4));
    std::vector<std::uint8_t> budgets;
    for (int i = 0; i < 200 && budgets.size() < 3; ++i) {
        for (const auto& f : step())
            if (f.flit.isHead())
                budgets.push_back(f.flit.misrouteBudget);
        // Never credit: every attempt stalls and gets killed.
    }
    ASSERT_GE(budgets.size(), 3u);
    EXPECT_EQ(budgets[0], 0u);  // Attempt 0.
    EXPECT_EQ(budgets[1], 0u);  // Attempt 1.
    EXPECT_EQ(budgets[2], 3u);  // Attempt 2: budget granted.
}

TEST_F(InjectorTest, FcrPadsAfterPayload)
{
    cfg.protocol = ProtocolKind::Fcr;
    rebuild();
    inj->enqueue(msgTo(5, 4));
    std::vector<Flit> flits;
    for (int i = 0; i < 80; ++i) {
        for (const auto& f : step()) {
            flits.push_back(f.flit);
            inj->acceptCredit(f.injChannel, f.vc);
        }
    }
    const std::uint32_t wire =
        wireLength(ProtocolKind::Fcr, 4, 2, 2, 2);
    ASSERT_EQ(flits.size(), wire);
    // Everything between payload and tail is PAD.
    for (std::uint32_t i = 4; i + 1 < wire; ++i)
        EXPECT_EQ(flits[i].type, FlitType::Pad);
}

TEST_F(InjectorTest, AdmissionMemoStartsRetryWhenBackoffExpires)
{
    cfg.numVcs = 2;
    cfg.timeout = 4;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 20;
    rebuild();
    // A long worm to 5 keeps destination 5 busy; the worm to 6 gets no
    // credits, is killed and waits out its backoff at the queue front,
    // ahead of a due message to 5 that only the busy set blocks. The
    // scans in between fail and are memoized until the backoff expiry.
    const PendingMessage longer = msgTo(5, 100);
    const PendingMessage victim = msgTo(6, 4);
    inj->enqueue(longer);
    inj->enqueue(victim);
    inj->enqueue(msgTo(5, 4, 1));
    Cycle killed_at = kNeverCycle;
    Cycle restarted_at = kNeverCycle;
    for (int i = 0; i < 80 && restarted_at == kNeverCycle; ++i) {
        const Cycle at = now;
        const auto sent = stepVsMemoFree();
        for (const InjectedFlit& f : sent) {
            if (f.flit.isKill() && f.flit.msg == victim.id)
                killed_at = at;
            if (f.flit.isHead() && f.flit.msg == victim.id &&
                f.flit.attempt == 1)
                restarted_at = at;
        }
        drainTo(sent, 5);
    }
    ASSERT_NE(killed_at, kNeverCycle);
    EXPECT_EQ(restarted_at, killed_at + cfg.backoffGap);
    EXPECT_TRUE(started(longer.id));
}

TEST_F(InjectorTest, AdmissionMemoStartsWaiterWhenCommitFreesDest)
{
    cfg.numVcs = 2;
    rebuild();
    // The second message to 5 waits on a free slot for the first to
    // commit; the commit releases the destination and resets the memo.
    const PendingMessage first = msgTo(5, 4, 0);
    const PendingMessage second = msgTo(5, 4, 1);
    inj->enqueue(first);
    inj->enqueue(second);
    Cycle committed_at = kNeverCycle;
    Cycle second_at = kNeverCycle;
    for (int i = 0; i < 60 && second_at == kNeverCycle; ++i) {
        const Cycle at = now;
        const auto sent = stepVsMemoFree();
        for (const InjectedFlit& f : sent)
            if (f.flit.isTail() && f.flit.msg == first.id)
                committed_at = at;
        if (started(second.id))
            second_at = at;
        drainTo(sent, 5);
    }
    ASSERT_NE(committed_at, kNeverCycle);
    EXPECT_EQ(second_at, committed_at + 1);
}

TEST_F(InjectorTest, AdmissionMemoSeesEnqueueAfterFullWindowScan)
{
    cfg.numVcs = 2;
    rebuild();
    // Sixteen due messages to busy destination 5 fill the scan window,
    // so the free slot's scan fails; a message to 7 enqueued after
    // that lands outside the window and must wait, like a full scan,
    // until the worm to 5 commits and the window moves up to it.
    const PendingMessage longer = msgTo(5, 40);
    inj->enqueue(longer);
    for (std::uint32_t i = 1; i <= 16; ++i)
        inj->enqueue(msgTo(5, 4, i));
    for (int i = 0; i < 5; ++i)
        drainTo(stepVsMemoFree(), 5);
    const PendingMessage late = msgTo(7, 4);
    inj->enqueue(late);
    Cycle committed_at = kNeverCycle;
    Cycle late_at = kNeverCycle;
    for (int i = 0; i < 200 && late_at == kNeverCycle; ++i) {
        const Cycle at = now;
        const auto sent = stepVsMemoFree();
        for (const InjectedFlit& f : sent)
            if (f.flit.isTail() && f.flit.msg == longer.id)
                committed_at = at;
        if (started(late.id))
            late_at = at;
        drainTo(sent, 5);
        drainTo(sent, 7);
    }
    ASSERT_NE(committed_at, kNeverCycle);
    EXPECT_EQ(late_at, committed_at + 1);
}

TEST_F(InjectorTest, AdmissionMemoSeesEnqueueInsideWindow)
{
    cfg.numVcs = 2;
    rebuild();
    // Fifteen blocked messages leave one place in the scan window: a
    // message enqueued behind them after failed scans starts at the
    // next tick.
    inj->enqueue(msgTo(5, 40));
    for (std::uint32_t i = 1; i <= 15; ++i)
        inj->enqueue(msgTo(5, 4, i));
    for (int i = 0; i < 5; ++i)
        drainTo(stepVsMemoFree(), 5);
    const PendingMessage late = msgTo(7, 4);
    inj->enqueue(late);
    EXPECT_FALSE(started(late.id));
    drainTo(stepVsMemoFree(), 5);
    EXPECT_TRUE(started(late.id));
}

TEST_F(InjectorTest, AdmissionMemoSeesRetryDueInItsRequeueTick)
{
    cfg.numVcs = 2;
    cfg.enforceDestOrder = false;
    cfg.timeout = 30;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 0;
    rebuild();
    // Two worms to 5; only the short one gets credits and commits.
    // Then sixteen deferred messages fill the scan window ahead of a
    // due one, so the free slot's scan fails. When the stalled worm is
    // killed its zero-gap retry is due in the same tick: the requeue
    // itself must void the memo, since no busy destination changes.
    const PendingMessage quick = msgTo(5, 4);
    const PendingMessage stuck = msgTo(5, 30);
    inj->enqueue(quick);
    inj->enqueue(stuck);
    bool deferred = false;
    Cycle killed_at = kNeverCycle;
    Cycle restarted_at = kNeverCycle;
    for (int i = 0; i < 80 && restarted_at == kNeverCycle; ++i) {
        const Cycle at = now;
        const auto sent = stepVsMemoFree();
        for (const InjectedFlit& f : sent) {
            if (f.flit.msg == quick.id)
                inj->acceptCredit(f.injChannel, f.vc);
            if (f.flit.isKill() && f.flit.msg == stuck.id)
                killed_at = at;
        }
        if (killed_at != kNeverCycle && started(stuck.id))
            restarted_at = at;
        if (!deferred && stats->messagesCommitted.value() == 1) {
            deferred = true;
            for (std::uint32_t k = 0; k < 16; ++k) {
                PendingMessage m = msgTo(6, 4, k);
                m.notBefore = now + 200;
                inj->enqueue(m);
            }
            inj->enqueue(msgTo(7, 4));
        }
    }
    ASSERT_TRUE(deferred);
    ASSERT_NE(killed_at, kNeverCycle);
    EXPECT_EQ(restarted_at, killed_at);
}

TEST_F(InjectorTest, AdmissionMemoMatchesFullScanUnderRandomTraffic)
{
    // Random enqueues (some deferred), partial credit returns, aborts
    // and kills across order/backoff settings, including zero-gap
    // retries that are due in the tick that requeues them.
    struct Variant
    {
        bool destOrder;
        BackoffScheme backoff;
        Cycle gap;
        std::uint32_t channels;
    };
    const Variant variants[] = {
        {true, BackoffScheme::Static, 0, 1},
        {true, BackoffScheme::Exponential, 2, 2},
        {false, BackoffScheme::Static, 0, 1},
        {false, BackoffScheme::Static, 3, 2},
    };
    for (const Variant& v : variants) {
        SCOPED_TRACE(::testing::Message()
                     << "order " << v.destOrder << " gap " << v.gap);
        cfg.numVcs = 2;
        cfg.timeout = 6;
        cfg.enforceDestOrder = v.destOrder;
        cfg.backoff = v.backoff;
        cfg.backoffGap = v.gap;
        cfg.injectionChannels = v.channels;
        rebuild();
        now = 0;
        Rng draw(11);
        for (int i = 0; i < 600; ++i) {
            if (draw.below(3) == 0) {
                PendingMessage m = msgTo(
                    static_cast<NodeId>(1 + draw.below(3)),
                    static_cast<std::uint32_t>(2 + draw.below(6)));
                if (draw.below(4) == 0)
                    m.notBefore = now + draw.below(20);
                inj->enqueue(m);
            }
            const auto sent = stepVsMemoFree();
            for (const InjectedFlit& f : sent)
                if (!f.flit.isKill() && draw.below(10) < 7)
                    inj->acceptCredit(f.injChannel, f.vc);
            if (draw.below(40) == 0) {
                const auto ch =
                    static_cast<std::uint32_t>(draw.below(v.channels));
                const auto vc = static_cast<VcId>(draw.below(2));
                const Injector::SlotProbe p = inj->slotProbe(ch, vc);
                if (p.active)
                    inj->acceptAbort(ch, vc, p.msg);
            }
        }
        EXPECT_GT(stats->sourceKills.value(), 0u);
        EXPECT_GT(stats->messagesCommitted.value(), 0u);
    }
}

} // namespace
} // namespace crnet
