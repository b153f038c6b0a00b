/**
 * @file
 * Wormhole router model.
 *
 * Microarchitecture (one clock = one tick):
 *  - Input-buffered: every input port has `numVcs` virtual channels,
 *    each a FlitBuffer of `bufferDepth` flits.
 *  - Credit-based flow control per VC; one flit per physical channel
 *    per cycle; channel latency (1 cycle) is modeled by the Network.
 *  - Atomic VC allocation: a header may claim a downstream VC only if
 *    it is unallocated and its buffer is empty (all credits present).
 *  - Switch: one flit per input port and one flit per output port per
 *    cycle; round-robin arbitration on both sides.
 *
 * Port layout: input ports [0, 2n) are network links, [2n, 2n+I) are
 * injection channels from the local NIC. Output ports [0, 2n) are
 * network links, [2n, 2n+E) are ejection channels to the local NIC.
 *
 * Storage layout: every fixed-size per-router array (flit slots,
 * input/output VC state machines, stored kill tokens, round-robin
 * pointers, port-busy and switch-nomination scratch, the candidate
 * list and the four outboxes) lives in a `Router::StatePool` —
 * per-field arrays spanning every router of one network, indexed by
 * node id and sized once at construction. Each Router holds raw base
 * pointers into its pool slice, so a shard worker ticking a
 * contiguous node range walks cache-dense memory and building a
 * network costs a constant number of allocations
 * (docs/PERFORMANCE.md). A router is always pool-backed; a unit test
 * builds a one-node pool.
 *
 * Kill machinery (the CR-specific part):
 *  - A forward Kill token arriving at an input VC purges the worm's
 *    buffered flits. If the worm had an output allocated, the token is
 *    re-sent on that output next cycle with priority over data and
 *    without consuming credits (in hardware it rides the control
 *    wires); the output VC is deallocated and its credit count reset
 *    to "empty downstream" because the purged flits never return
 *    credits. If the worm's header was still waiting here, the token
 *    annihilates with it.
 *  - A backward kill walks the worm's switch allocations upstream,
 *    purging as it goes, until it reaches the injector (which aborts
 *    and schedules a retransmission). Used by the receiver-independent
 *    path-wide timeout scheme the paper evaluates against.
 */

#ifndef CRNET_ROUTER_ROUTER_HH
#define CRNET_ROUTER_ROUTER_HH

#include <cstdint>
#include <vector>

#include "src/core/annotations.hh"
#include "src/router/buffer.hh"
#include "src/router/flit.hh"
#include "src/routing/routing.hh"
#include "src/sim/arena.hh"
#include "src/sim/config.hh"
#include "src/sim/fixed_vec.hh"
#include "src/sim/rng.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace crnet {

class Auditor;
class Tracer;

/** Counters shared by all routers of one network. */
struct RouterStats
{
    Counter flitsForwarded;     //!< Data flits moved through switches.
    Counter headersRouted;      //!< Successful VC allocations.
    Counter escapeAllocations;  //!< Duato escape-channel entries (PDS).
    Counter misrouteHops;       //!< Non-minimal hops taken.
    Counter killsForwarded;     //!< Forward-kill hop traversals.
    Counter killsAnnihilated;   //!< Kills that met their header.
    Counter pathWideKills;      //!< Router-initiated kills (path-wide).
    Counter bkillHops;          //!< Backward-kill hop traversals.
    Counter flitsPurged;        //!< Data flits dropped by kill purges.
    Counter stragglersDropped;  //!< Late data flits of killed worms.
    Counter staleKills;         //!< Kill/bkill tokens that found their
                                //!< worm already gone.
    Counter lateCreditsDropped; //!< Credits arriving after kill reset.
    Counter linkDeathTeardowns; //!< Worm segments reclaimed because a
                                //!< link died under them.
};

/** A flit leaving the router this cycle. */
struct SentFlit
{
    PortId outPort = kInvalidPort;
    VcId vc = kInvalidVc;
    Flit flit;
};

/** A credit owed to whoever feeds `inPort`. */
struct SentCredit
{
    PortId inPort = kInvalidPort;
    VcId vc = kInvalidVc;
};

/** A backward kill owed to whoever feeds `inPort`. */
struct SentBkill
{
    PortId inPort = kInvalidPort;
    VcId vc = kInvalidVc;
};

/** An abort notification to the local injector. */
struct SentAbort
{
    std::uint32_t injChannel = 0;
    VcId vc = kInvalidVc;
    MsgId msg = kInvalidMsg;
};

/** One wormhole router. */
class Router
{
  private:
    /**
     * Per-input-VC state machine. Five per-tick sweeps walk these
     * records, so they hold only hot fields (the stored kill token
     * lives in the pool's parallel killFlits_ array) and stay within
     * 96 bytes.
     */
    struct InputVc
    {
        enum class State : std::uint8_t { Idle, Routing, Active };

        FlitBuffer buf;                 //!< Bound to pool flit slots.
        MsgId msg = kInvalidMsg;
        Cycle stallCycles = 0;          //!< For the path-wide scheme.
        Cycle headArrivedAt = 0;        //!< Header accept (forensics).
        MsgId purgeMsg = kInvalidMsg;   //!< Drop stragglers of this.
        std::uint16_t attempt = 0;      //!< Attempt of current worm.
        PortId outPort = kInvalidPort;  //!< Allocation when Active.
        VcId outVc = kInvalidVc;
        PortId killOutPort = kInvalidPort;
        VcId killOutVc = kInvalidVc;
        State state = State::Idle;
        bool movedThisCycle = false;    //!< Progress flag (stall calc).
        bool blockTraced = false;       //!< Block event emitted for
                                        //!< the current stall episode.
        bool killPending = false;       //!< Kill token to forward
                                        //!< (stored in killFlits_).
    };
    static_assert(sizeof(InputVc) <= 96,
                  "InputVc is swept five times per tick; keep it small");

    /** Per-output-VC bookkeeping. */
    struct OutputVc
    {
        bool allocated = false;
        PortId holderPort = kInvalidPort;
        VcId holderVc = kInvalidVc;
        std::uint32_t credits = 0;
        bool ejection = false;  //!< Finite receiver-buffer credits.
        /**
         * Not allocatable before this cycle: after a kill resets the
         * credit count, one in-flight credit may still arrive a cycle
         * later; quarantining the VC keeps the ledger exact.
         */
        Cycle quarantineUntil = 0;
    };

    /**
     * The best switch nomination for one output port so far: the input
     * VC whose port is nearest after the output's round-robin pointer.
     */
    struct SwitchReq
    {
        PortId inPort = kInvalidPort;  //!< kInvalidPort: no request.
        VcId inVc = kInvalidVc;
        PortId dist = 0;  //!< Round-robin distance of inPort.
    };

  public:
    /**
     * Structure-of-arrays backing store for every router of one
     * network: flit slots, input/output VC state, round-robin
     * pointers, per-cycle scratch and outboxes live in contiguous
     * per-field arrays indexed by node id. A shard worker ticking a
     * contiguous node range therefore walks adjacent cache lines
     * instead of pointer-chasing per-router heaps, and the flat flit
     * array leaves the switch-allocation inner loops SIMD-ready.
     */
    class StatePool
    {
      public:
        /** Size arrays for `nodes` routers under `cfg` geometry. */
        StatePool(const SimConfig& cfg, std::uint64_t nodes);

        StatePool(const StatePool&) = delete;
        StatePool& operator=(const StatePool&) = delete;

        std::uint64_t nodes() const { return nodes_; }

        /** Bytes held by the pool arrays. */
        std::size_t bytes() const;

      private:
        friend class Router;

        std::uint64_t nodes_;
        PortId netPorts_;
        PortId inPorts_;
        PortId outPorts_;
        std::uint32_t vcs_;
        std::uint32_t injVcs_;  //!< Injection channels x VCs.
        std::size_t depth_;

        /** One block holding every array below. */
        Arena arena_;
        Flit* flitSlots_;        //!< [node][inPort][vc][depth].
        InputVc* inputs_;        //!< [node][inPort][vc].
        /** Stored kill token per input VC (cold; parallel to inputs_). */
        Flit* killFlits_;        //!< [node][inPort][vc].
        OutputVc* outputs_;      //!< [node][outPort][vc].
        VcId* rrInVc_;           //!< [node][inPort].
        PortId* rrOutIn_;        //!< [node][outPort].
        std::uint8_t* outPortBusy_;  //!< [node][outPort].
        SwitchReq* switchBest_;      //!< [node][outPort].
        /** Routing candidates: each (network port, VC) at most once. */
        Candidate* candidates_;      //!< [node][netPort][vc].
        // Outboxes, at their per-tick bounds: one flit and one credit
        // per output port (one switch winner or kill token each), one
        // backward kill or abort per input VC (each idles at most once
        // per tick).
        SentFlit* sentFlits_;      //!< [node][outPort].
        SentCredit* sentCredits_;  //!< [node][outPort].
        SentBkill* sentBkills_;    //!< [node][netPort][vc].
        SentAbort* sentAborts_;    //!< [node][injCh][vc].
    };

    /**
     * Router for node `id`, backed by slice `poolIndex` of `pool`. The
     * pool must outlive the router; its arrays never reallocate (they
     * are sized once at construction).
     *
     * @param id     Node this router serves.
     * @param cfg    Simulation configuration.
     * @param algo   Routing relation (shared across routers).
     * @param stats  Shared counter block (never null).
     * @param rng    Private stream for arbitration tie-breaks.
     */
    Router(NodeId id, const SimConfig& cfg,
           const RoutingAlgorithm& algo, RouterStats* stats, Rng rng,
           StatePool& pool, std::uint64_t poolIndex);

    // Copies would alias the pool slice; moves exist only so routers
    // can live in a reserved std::vector.
    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;
    Router(Router&&) noexcept = default;

    NodeId id() const { return id_; }
    PortId numInPorts() const { return numInPorts_; }
    PortId numOutPorts() const { return numOutPorts_; }
    PortId networkPorts() const { return networkPorts_; }
    /** First injection input port. */
    PortId injBase() const { return networkPorts_; }
    /** First ejection output port. */
    PortId ejBase() const { return networkPorts_; }

    // --- Delivery phase (Network calls these before tick) ----------

    /** A flit arrives on an input VC (from a channel register). */
    void acceptFlit(PortId in_port, VcId vc, const Flit& flit);

    /** A credit returns for an output VC. */
    void acceptCredit(PortId out_port, VcId vc);

    /** A backward kill arrives, addressed to an output VC. */
    void acceptBkill(PortId out_port, VcId vc);

    // --- Compute phase ----------------------------------------------

    /**
     * Advance one cycle: process backward kills, forward pending kill
     * tokens, route waiting headers, allocate the switch and emit
     * flits/credits into the outboxes.
     */
    CRNET_HOT_PATH
    void tick(Cycle now);

    // --- Dynamic faults (Network calls these when a link dies) -------

    /**
     * The directed link leaving `out_port` just died. Worms holding
     * one of its output VCs are torn down toward their source via the
     * backward-kill path (processed first thing this tick); orphaned
     * credit ledgers reset to "downstream empty" — purged flits never
     * return credits over a dead wire.
     */
    void onOutputLinkDead(PortId out_port, Cycle now);

    /**
     * The directed link feeding `in_port` just died. Stranded worm
     * state is purged; an Active worm's downstream fragment is chased
     * with a kill token issued at the break point (the source's own
     * kill can no longer cross the dead wire), while a still-waiting
     * header simply dies with the wire.
     */
    void onInputLinkDead(PortId in_port, Cycle now);

    /**
     * The directed link leaving `out_port` was repaired: re-arm its
     * credit ledgers. The death-time teardown guarantees the far side
     * is empty, so every ledger restarts at "downstream empty".
     */
    void onOutputLinkRepaired(PortId out_port, Cycle now);

    // --- Outboxes (valid after tick; cleared at next tick) -----------
    FixedVec<SentFlit> sentFlits;
    FixedVec<SentCredit> sentCredits;
    FixedVec<SentBkill> sentBkills;
    FixedVec<SentAbort> sentAborts;

    // --- Introspection (tests, watchdog) ------------------------------

    /** True when no input VC holds any flit or allocation. */
    bool idle() const;

    /** Flits currently buffered across all input VCs. */
    std::uint64_t bufferedFlits() const;

    /** State of one input VC (test hook). */
    bool vcIdle(PortId in_port, VcId vc) const;

    /** Input-VC state machine phases (forensics/probe mirror). */
    enum class VcState : std::uint8_t { Idle, Routing, Active };

    /** Forensic snapshot of one input VC (watchdog dump). */
    struct InputProbe
    {
        VcState state = VcState::Idle;
        MsgId msg = kInvalidMsg;
        std::uint16_t attempt = 0;
        std::uint32_t buffered = 0;
        Cycle stallCycles = 0;
        bool killPending = false;
        PortId outPort = kInvalidPort;
        VcId outVc = kInvalidVc;
        Cycle headArrivedAt = 0;  //!< Approximate (register time).
    };
    InputProbe inputProbe(PortId in_port, VcId vc) const;

    // --- Audit probes (see src/sim/audit.hh) --------------------------

    /** Attach the invariant auditor (null to detach). */
    void setAuditor(Auditor* audit) { audit_ = audit; }

    /** Attach the event tracer (null to detach; the default). */
    void setTracer(Tracer* trace) { trace_ = trace; }

    // --- Heat counters (see src/core/timeseries.hh) --------------------

    /** Enable per-port heat accumulation (allocates the counters). */
    void setHeatTracking(bool on);

    /** Data flits forwarded out of `out_port` (0 when not tracking). */
    std::uint64_t heatForwarded(PortId out_port) const;

    /** Cycles `in_port` held at least one blocked worm. */
    std::uint64_t heatBlocked(PortId in_port) const;

    /** Sum over cycles of flits buffered in this router. */
    std::uint64_t heatOccupancyIntegral() const
    {
        return heatOccupancy_;
    }

    /** Flits buffered in one input VC. */
    std::uint32_t inputOccupancy(PortId in_port, VcId vc) const;

    /** True while a forward kill waits on this input VC. */
    bool inputKillPending(PortId in_port, VcId vc) const;

    /** Credit-ledger view of one output VC. */
    struct OutputProbe
    {
        bool allocated = false;
        std::uint32_t credits = 0;
        Cycle quarantineUntil = 0;
    };
    OutputProbe outputProbe(PortId out_port, VcId vc) const;

    // --- Checkpoint support (snapshot.hh) ------------------------------

    /**
     * Serialize/restore every field that survives across ticks:
     * input/output VC state machines, pending backward kills,
     * round-robin pointers, heat counters and the RNG stream. The
     * outboxes and per-cycle scratch (outPortBusy_, switchBest_) are
     * reset within every tick and need not round-trip.
     */
    template <typename Io>
    void serialize(Io& io);

    /** Replace the RNG stream (warm-start reseeding). */
    void setRng(const Rng& rng) { rng_ = rng; }

  private:
    InputVc& ivc(PortId p, VcId v);
    const InputVc& ivc(PortId p, VcId v) const;
    Flit& killFlit(PortId p, VcId v);
    OutputVc& ovc(PortId p, VcId v);
    const OutputVc& ovc(PortId p, VcId v) const;

    std::size_t numInVcs() const
    {
        return static_cast<std::size_t>(numInPorts_) * numVcs_;
    }
    std::size_t numOutVcs() const
    {
        return static_cast<std::size_t>(numOutPorts_) * numVcs_;
    }

    void processBkills();
    void forwardKills();
    void routeHeaders(Cycle now);
    void allocateSwitch(Cycle now);
    void checkRouterTimeouts();
    void killWormAt(PortId p, VcId v);
    void releaseForKill(InputVc& in);
    void propagateUpstream(PortId in_port, VcId vc, MsgId msg);
    void accumulateHeat();

    NodeId id_;
    const SimConfig& cfg_;
    const RoutingAlgorithm& algo_;
    RouterStats* stats_;
    Auditor* audit_ = nullptr;
    Tracer* trace_ = nullptr;
    Rng rng_;

    PortId networkPorts_;
    PortId numInPorts_;
    PortId numOutPorts_;
    std::uint32_t numVcs_;

    // Base pointers into this router's StatePool slice. [port][vc]
    // flattened, exactly like the historical per-router vectors.
    InputVc* inputs_ = nullptr;
    Flit* killFlits_ = nullptr;  //!< Parallel to inputs_.
    OutputVc* outputs_ = nullptr;
    VcId* rrInVc_ = nullptr;     //!< Round-robin, per input port.
    PortId* rrOutIn_ = nullptr;  //!< Round-robin, per output port.
    std::uint8_t* outPortBusy_ = nullptr;  //!< Per-cycle scratch.
    /**
     * Best nomination per output port. Every entry is empty between
     * ticks: allocateSwitch fills and drains it.
     */
    SwitchReq* switchBest_ = nullptr;
    /** Candidate list for one header (avoids per-header allocation). */
    CandidateList scratch_;

    /**
     * Backward kills accepted last delivery, processed this tick. Its
     * length depends on traffic (a receiver's starvation sweep can
     * address one ejection VC several times), so like the NIC's
     * source queue it keeps its own storage.
     */
    std::vector<SentBkill> pendingBkillsAsOut_;

    /** Heat counters (empty unless setHeatTracking(true)). */
    bool heatTracking_ = false;
    std::vector<std::uint64_t> heatForwarded_;  //!< Per output port.
    std::vector<std::uint64_t> heatBlocked_;    //!< Per input port.
    std::uint64_t heatOccupancy_ = 0;

    /** Current cycle (set at tick entry; used by helpers). */
    Cycle now_ = 0;
};

} // namespace crnet

#endif // CRNET_ROUTER_ROUTER_HH
