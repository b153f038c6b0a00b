/**
 * @file
 * Message injection interface — the paper's Fig. 7 hardware in
 * software.
 *
 * The injector implements the source half of the CR/FCR protocol:
 *
 *  - pads messages to the CR (path depth) or FCR (payload + round
 *    trip) wire length,
 *  - watches injection progress per worm (stall counter, or the
 *    paper's I_min lower bound),
 *  - kills worms whose progress signals a potential deadlock
 *    situation, and
 *  - retransmits killed messages, front-of-queue (order preserving),
 *    after a static or binary-exponential gap.
 *
 * One worm may be in flight per (injection channel, VC) pair; worms on
 * one channel share its single flit/cycle of bandwidth (which is why
 * the paper scales the timeout by the VC count). A message to
 * destination d never starts while an earlier message to d is still
 * unfinished, which preserves per-(src,dst) order even with several
 * worms in flight.
 */

#ifndef CRNET_NIC_INJECTOR_HH
#define CRNET_NIC_INJECTOR_HH

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "src/core/annotations.hh"
#include "src/core/metrics.hh"
#include "src/router/flit.hh"
#include "src/routing/routing.hh"
#include "src/sim/arena.hh"
#include "src/sim/config.hh"
#include "src/sim/fixed_vec.hh"
#include "src/sim/rng.hh"
#include "src/sim/types.hh"
#include "src/topology/topology.hh"
#include "src/traffic/message.hh"

namespace crnet {

class Auditor;
class Tracer;

/** A flit the injector puts on an injection channel this cycle. */
struct InjectedFlit
{
    std::uint32_t injChannel = 0;
    VcId vc = kInvalidVc;
    Flit flit;
};

/** A give-up staged for the Network (maxRetries exhausted). */
struct FailedMessage
{
    PendingMessage msg;
    Cycle at = 0;
};

/** Measured-commit accumulator samples staged for the Network. */
struct CommittedSample
{
    double attempts = 0.0;  //!< Attempts the commit took (>= 1).
    double padFrac = 0.0;   //!< Pad flits / wire length.
};

/** Per-node source interface. */
class Injector
{
  private:
    struct Slot
    {
        enum class State { Free, Active, Cooldown };

        State state = State::Free;
        std::uint32_t credits = 0;
        Cycle cooldownUntil = 0;

        // Valid while Active:
        PendingMessage msg;
        std::uint32_t wireLen = 0;
        std::uint32_t nextSeq = 0;
        std::uint32_t hops = 0;
        Cycle startCycle = 0;
        Cycle stallCycles = 0;
        Cycle headInjectedAt = 0;
    };

  public:
    /**
     * Backing store for every injector of one network: slots,
     * round-robin pointers, busy-destination sets, per-cycle scratch
     * and outboxes in per-field arrays indexed by node id, sized once
     * at construction (see Router::StatePool).
     */
    class StatePool
    {
      public:
        /** Size arrays for `nodes` injectors under `cfg` geometry. */
        StatePool(const SimConfig& cfg, std::uint64_t nodes);

        StatePool(const StatePool&) = delete;
        StatePool& operator=(const StatePool&) = delete;

        /** Bytes held by the pool arrays. */
        std::size_t bytes() const;

      private:
        friend class Injector;

        std::uint64_t nodes_;
        std::uint32_t channels_;
        std::uint32_t slotsPerNode_;  //!< Channels x VCs.

        /** One block holding every array below. */
        Arena arena_;
        Slot* slots_;                   //!< [node][ch][vc].
        NodeId* busyDests_;             //!< [node][slot].
        VcId* rrVc_;                    //!< [node][ch].
        std::uint8_t* channelUsed_;     //!< [node][ch].
        // Per-tick bounds: an abort retires one Active slot until the
        // next tick; one flit (or kill token) and at most one commit
        // per channel; a give-up per retry or per kill.
        PendingMessage* pendingRetries_;  //!< [node][slot].
        InjectedFlit* sent_;              //!< [node][ch].
        FailedMessage* failed_;           //!< [node][slot + ch].
        CommittedSample* committed_;      //!< [node][ch].
    };

    /**
     * Injector for node `node`, backed by slice `poolIndex` of `pool`
     * (which must outlive it).
     */
    Injector(NodeId node, const SimConfig& cfg, const Topology& topo,
             const RoutingAlgorithm& algo, NetworkStats* stats,
             Rng rng, StatePool& pool, std::uint64_t poolIndex);

    // Copies would alias the pool slice; moves exist only so
    // injectors can live in a reserved std::vector.
    Injector(const Injector&) = delete;
    Injector& operator=(const Injector&) = delete;
    Injector(Injector&&) noexcept = default;

    /**
     * Queue a message for transmission. Returns false (and counts a
     * drop) when the source queue is full.
     */
    CRNET_ALLOW("alloc",
                "per-message source-queue bookkeeping: deque block "
                "growth is amortized and recycled in steady state "
                "(tests/test_alloc_steady.cc)")
    bool enqueue(const PendingMessage& msg);

    // --- Delivery phase ----------------------------------------------

    /** Credit back from the local router's injection input VC. */
    void acceptCredit(std::uint32_t inj_channel, VcId vc);

    /** Backward kill reached the source: abort and schedule a retry. */
    CRNET_ALLOW("alloc",
                "pendingRetries_ is a fixed pool slice, but its "
                "declared type names classes from files the analyzer "
                "indexes later, so its push_back is unresolved")
    void acceptAbort(std::uint32_t inj_channel, VcId vc, MsgId msg);

    // --- Compute phase -------------------------------------------------

    /** Advance one cycle; fills the `sent` outbox. */
    CRNET_HOT_PATH
    void tick(Cycle now);

    /** Flits entering injection channels this cycle. */
    FixedVec<InjectedFlit> sent;

    // --- Deferred stats ------------------------------------------------
    //
    // tick() never touches the shared accumulators or the delivery
    // ledger: measured-commit samples and give-ups are staged in the
    // outboxes below, and the Network drains them serially in node
    // order after the compute phase, so the global Welford/ledger
    // update sequence is the same at every shard count.

    /** Give-ups staged this tick (valid after tick; drained by owner). */
    FixedVec<FailedMessage> failed;

    /** Measured commits staged this tick (same lifecycle as `failed`). */
    FixedVec<CommittedSample> committedStats;

    // --- Introspection ---------------------------------------------------

    /** Worms currently transmitting. */
    std::uint32_t activeWorms() const;

    /** Messages waiting (or backing off) in the source queue. */
    std::size_t queueLength() const { return queue_.size(); }

    /** True when enqueue() would drop. */
    bool queueFull() const;

    /** True when nothing is queued or in flight at this source. */
    bool idle() const;

    /**
     * Earliest future cycle at which tick() could change any state
     * (active-set scheduler contract, see docs/PERFORMANCE.md):
     * `now + 1` while a worm is active or a retry is pending, the
     * nearest cooldown-exit or backoff expiry otherwise, kNeverCycle
     * when the injector is fully idle. May be conservative (early) —
     * a tick before the returned cycle is a state no-op — but never
     * late.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Forensic snapshot of one injection slot (watchdog dump). */
    struct SlotProbe
    {
        bool active = false;
        MsgId msg = kInvalidMsg;
        NodeId dst = kInvalidNode;
        std::uint16_t attempt = 0;
        std::uint32_t nextSeq = 0;
        std::uint32_t wireLen = 0;
        std::uint32_t credits = 0;
        Cycle stallCycles = 0;
    };
    SlotProbe slotProbe(std::uint32_t ch, VcId vc) const;

    // --- Audit probes (see src/sim/audit.hh) --------------------------

    /** Attach the invariant auditor (null to detach). */
    void setAuditor(Auditor* audit) { audit_ = audit; }

    /** Attach the event tracer (null to detach; the default). */
    void setTracer(Tracer* trace) { trace_ = trace; }

    /** Credit counter of one (channel, VC) slot. */
    std::uint32_t slotCredits(std::uint32_t ch, VcId vc) const;

    /** True while a slot sits in its post-kill cooldown window. */
    bool slotInCooldown(std::uint32_t ch, VcId vc) const;

    // --- Checkpoint support (snapshot.hh) -----------------------------

    /**
     * Source queue, pending retries, per-slot worm state, busy-
     * destination set (sorted) and the RNG stream. The `sent` outbox
     * and channelUsed_ are cleared at tick entry and need not
     * round-trip.
     */
    template <typename Io>
    void serialize(Io& io);

    /** Replace the RNG stream (warm-start reseeding). */
    void setRng(const Rng& rng) { rng_ = rng; }

  private:
    Slot& slot(std::uint32_t ch, VcId vc);
    const Slot& slot(std::uint32_t ch, VcId vc) const;
    void startWorms(Cycle now);
    void checkTimeouts(Cycle now);
    void injectFlits(Cycle now);
    void killWorm(std::uint32_t ch, VcId vc, Cycle now);
    void requeueForRetry(PendingMessage msg, Cycle now);
    Flit buildFlit(const Slot& s, std::uint32_t seq, Cycle now) const;
    bool timeoutExpired(const Slot& s, Cycle now) const;
    /** Rescan queue_ for the exact min notBefore (erase-of-min). */
    void recomputeQueueMin();
    /** Put a message back at the front of queue_. */
    CRNET_ALLOW("alloc",
                "retry requeue: deque block growth is amortized and "
                "recycled in steady state (tests/test_alloc_steady.cc)")
    void requeueFront(const PendingMessage& msg);
    bool destBusy(NodeId dst) const;
    void reserveDest(NodeId dst);
    void releaseDest(NodeId dst);

    NodeId node_;
    const SimConfig& cfg_;
    const Topology& topo_;
    const RoutingAlgorithm& algo_;
    NetworkStats* stats_;
    Auditor* audit_ = nullptr;
    Tracer* trace_ = nullptr;
    Rng rng_;

    std::deque<PendingMessage> queue_;
    /**
     * Exact minimum notBefore over queue_ (kNeverCycle when empty),
     * maintained incrementally so nextEventCycle() never rescans a
     * deep backoff queue. Pushes min-update in O(1); erasing the
     * minimum (a worm start) triggers the one O(queue) rescan.
     * Derived state: recomputed, not serialized, on restore.
     */
    Cycle queueMinNotBefore_ = kNeverCycle;
    /** Aborts accepted during delivery, requeued at the next tick. */
    FixedVec<PendingMessage> pendingRetries_;
    std::span<Slot> slots_;  //!< [channel][vc] flattened.
    /**
     * Destinations reserved by in-flight worms, a set kept as the
     * ascending prefix busyDests_[0, busyCount_). Every entry belongs
     * to at least one Active slot, so the slice holds one entry per
     * slot and admission never allocates or hashes.
     */
    NodeId* busyDests_ = nullptr;
    std::uint32_t busyCount_ = 0;
    /**
     * Admission memo: the last startWorms scan found nothing, and with
     * queue_ and busyDests_ unchanged it keeps finding nothing before
     * this cycle (the earliest backoff expiry among the scanned
     * entries whose destination was clear). Every change to either
     * container resets it to 0. Derived state: not serialized, reset
     * on restore.
     */
    Cycle admissionBlockedUntil_ = 0;
    VcId* rrVc_ = nullptr;  //!< Injection arbitration per channel.
    std::uint8_t* channelUsed_ = nullptr;  //!< One flit/channel/cycle.
};

} // namespace crnet

#endif // CRNET_NIC_INJECTOR_HH
