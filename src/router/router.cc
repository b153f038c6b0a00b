#include "src/router/router.hh"

#include <algorithm>

#include "src/sim/audit.hh"
#include "src/sim/log.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/trace.hh"

namespace crnet {

Router::StatePool::StatePool(const SimConfig& cfg,
                             std::uint64_t nodes)
    : nodes_(nodes),
      netPorts_(static_cast<PortId>(2 * cfg.dimensionsN)),
      inPorts_(static_cast<PortId>(netPorts_ + cfg.injectionChannels)),
      outPorts_(static_cast<PortId>(netPorts_ + cfg.ejectionChannels)),
      vcs_(cfg.numVcs),
      injVcs_(cfg.injectionChannels * cfg.numVcs),
      depth_(cfg.bufferDepth)
{
    if (nodes == 0)
        panic("StatePool needs at least one node");
    const std::size_t n = static_cast<std::size_t>(nodes);
    const std::size_t inVcs = n * inPorts_ * vcs_;
    const std::size_t outVcs = n * outPorts_ * vcs_;
    const std::size_t netVcs = n * netPorts_ * vcs_;
    // One block, carved once; routers hold raw pointers into it.
    OutputVc out;
    out.credits = cfg.bufferDepth;
    const auto carve = [&] {
        flitSlots_ = arena_.carve<Flit>(inVcs * depth_);
        inputs_ = arena_.carve<InputVc>(inVcs);
        killFlits_ = arena_.carve<Flit>(inVcs);
        outputs_ = arena_.carve<OutputVc>(outVcs, out);
        rrInVc_ = arena_.carve<VcId>(n * inPorts_);
        rrOutIn_ = arena_.carve<PortId>(n * outPorts_);
        outPortBusy_ = arena_.carve<std::uint8_t>(n * outPorts_);
        switchBest_ = arena_.carve<SwitchReq>(n * outPorts_);
        candidates_ = arena_.carve<Candidate>(netVcs);
        sentFlits_ = arena_.carve<SentFlit>(n * outPorts_);
        sentCredits_ = arena_.carve<SentCredit>(n * outPorts_);
        sentBkills_ = arena_.carve<SentBkill>(netVcs);
        sentAborts_ = arena_.carve<SentAbort>(n * injVcs_);
    };
    carve();
    arena_.allocate();
    carve();
    for (std::size_t i = 0; i < inVcs; ++i)
        inputs_[i].buf.bind(&flitSlots_[i * depth_], depth_);
    for (std::size_t i = 0; i < outVcs; ++i)
        outputs_[i].ejection = i / vcs_ % outPorts_ >= netPorts_;
}

std::size_t
Router::StatePool::bytes() const
{
    return arena_.bytes();
}

Router::Router(NodeId id, const SimConfig& cfg,
               const RoutingAlgorithm& algo, RouterStats* stats,
               Rng rng, StatePool& pool, std::uint64_t poolIndex)
    : id_(id), cfg_(cfg), algo_(algo), stats_(stats), rng_(rng),
      networkPorts_(static_cast<PortId>(2 * cfg.dimensionsN)),
      numInPorts_(static_cast<PortId>(networkPorts_ +
                                      cfg.injectionChannels)),
      numOutPorts_(static_cast<PortId>(networkPorts_ +
                                       cfg.ejectionChannels)),
      numVcs_(cfg.numVcs)
{
    if (stats_ == nullptr)
        panic("Router requires a shared RouterStats block");
    if (poolIndex >= pool.nodes_ || pool.inPorts_ != numInPorts_ ||
        pool.outPorts_ != numOutPorts_ || pool.vcs_ != numVcs_ ||
        pool.depth_ != cfg_.bufferDepth) {
        panic("StatePool geometry mismatch for router ", id_,
              " (pool index ", poolIndex, " of ", pool.nodes_, ")");
    }

    const std::size_t i = static_cast<std::size_t>(poolIndex);
    const std::size_t netVcs =
        static_cast<std::size_t>(networkPorts_) * numVcs_;
    inputs_ = &pool.inputs_[i * numInVcs()];
    killFlits_ = &pool.killFlits_[i * numInVcs()];
    outputs_ = &pool.outputs_[i * numOutVcs()];
    rrInVc_ = &pool.rrInVc_[i * numInPorts_];
    rrOutIn_ = &pool.rrOutIn_[i * numOutPorts_];
    outPortBusy_ = &pool.outPortBusy_[i * numOutPorts_];
    switchBest_ = &pool.switchBest_[i * numOutPorts_];
    scratch_ = CandidateList(&pool.candidates_[i * netVcs], netVcs);
    sentFlits = FixedVec<SentFlit>(&pool.sentFlits_[i * numOutPorts_],
                                   numOutPorts_);
    sentCredits = FixedVec<SentCredit>(
        &pool.sentCredits_[i * numOutPorts_], numOutPorts_);
    sentBkills =
        FixedVec<SentBkill>(&pool.sentBkills_[i * netVcs], netVcs);
    sentAborts = FixedVec<SentAbort>(
        &pool.sentAborts_[i * pool.injVcs_], pool.injVcs_);
}

Router::InputVc&
Router::ivc(PortId p, VcId v)
{
    return inputs_[static_cast<std::size_t>(p) * numVcs_ + v];
}

const Router::InputVc&
Router::ivc(PortId p, VcId v) const
{
    return inputs_[static_cast<std::size_t>(p) * numVcs_ + v];
}

Flit&
Router::killFlit(PortId p, VcId v)
{
    return killFlits_[static_cast<std::size_t>(p) * numVcs_ + v];
}

Router::OutputVc&
Router::ovc(PortId p, VcId v)
{
    return outputs_[static_cast<std::size_t>(p) * numVcs_ + v];
}

const Router::OutputVc&
Router::ovc(PortId p, VcId v) const
{
    return outputs_[static_cast<std::size_t>(p) * numVcs_ + v];
}

void
Router::acceptFlit(PortId in_port, VcId vc, const Flit& flit)
{
    if (in_port >= numInPorts_ || vc >= numVcs_)
        panic("acceptFlit: bad port/vc (", in_port, ", ", vc, ")");
    CRNET_AUDIT_HOOK(audit_, onChannelFlit(id_, in_port, vc, flit));
    InputVc& in = ivc(in_port, vc);

    if (flit.isKill()) {
        const std::size_t purged = in.buf.purge();
        stats_->flitsPurged.inc(purged);
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
        switch (in.state) {
          case InputVc::State::Active:
            if (in.msg != flit.msg) {
                // The token must chase its own worm; anything else is
                // a protocol bug.
                panic("kill token for msg ", flit.msg,
                      " found msg ", in.msg, " at node ", id_);
            }
            in.killPending = true;
            killFlit(in_port, vc) = flit;
            in.killOutPort = in.outPort;
            in.killOutVc = in.outVc;
            break;
          case InputVc::State::Routing:
            // The header was still waiting here: token and worm
            // annihilate; nothing to tear down further downstream.
            stats_->killsAnnihilated.inc();
            break;
          case InputVc::State::Idle:
            // Stale token (the worm was already torn down from the
            // other side, e.g. a backward kill beat us here).
            stats_->staleKills.inc();
            return;
        }
        in.purgeMsg = flit.msg;
        in.msg = kInvalidMsg;
        in.state = InputVc::State::Idle;
        in.stallCycles = 0;
        return;
    }

    // Data flit.
    if (in.state == InputVc::State::Idle) {
        if (flit.isHead()) {
            in.buf.push(flit);
            in.state = InputVc::State::Routing;
            in.msg = flit.msg;
            in.attempt = flit.attempt;
            in.stallCycles = 0;
            in.headArrivedAt = now_;
            in.blockTraced = false;
            return;
        }
        // Continuation of a worm that was purged here (backward-kill
        // race): at most one such flit can be in flight per hop.
        if (flit.msg != in.purgeMsg) {
            panic("straggler for unexpected msg ", flit.msg,
                  " (purged ", in.purgeMsg, ") at node ", id_);
        }
        stats_->stragglersDropped.inc();
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(1));
        return;
    }

    if (flit.msg != in.msg)
        panic("interleaved worms on one VC: msg ", flit.msg, " vs ",
              in.msg, " at node ", id_);
    in.buf.push(flit);
}

void
Router::acceptCredit(PortId out_port, VcId vc)
{
    OutputVc& o = ovc(out_port, vc);
    if (o.credits >= cfg_.bufferDepth) {
        // A credit for a flit that a kill purge already accounted for
        // (the kill reset the counter to "downstream empty").
        stats_->lateCreditsDropped.inc();
        return;
    }
    ++o.credits;
}

void
Router::acceptBkill(PortId out_port, VcId vc)
{
    pendingBkillsAsOut_.push_back(SentBkill{out_port, vc});
}

void
Router::processBkills()
{
    for (const SentBkill& bk : pendingBkillsAsOut_) {
        OutputVc& o = ovc(bk.inPort, bk.vc);
        if (!o.allocated) {
            // The worm released this output (tail passed) before the
            // downstream purge that sent the bkill; the purged flits'
            // credits never come back, so reset the ledger the same
            // way a live teardown does.
            stats_->staleKills.inc();
            o.credits = cfg_.bufferDepth;
            o.quarantineUntil = now_ + 2 * cfg_.channelLatency;
            continue;
        }
        const PortId hp = o.holderPort;
        const VcId hv = o.holderVc;
        InputVc& in = ivc(hp, hv);
        if (in.state != InputVc::State::Active ||
            in.outPort != bk.inPort || in.outVc != bk.vc) {
            // The holder record is stale: the worm that held this
            // output already died from its own side (a forward kill
            // accepted on the input VC releases the output only when
            // it crosses the switch), and the input VC may by now
            // carry a brand-new worm headed elsewhere. That worm's
            // upstream was cleaned by the original kill chain —
            // propagating a bkill here would tear an innocent
            // bystander on the reused wire. Just release the output.
            stats_->staleKills.inc();
            o.allocated = false;
            o.credits = cfg_.bufferDepth;
            o.quarantineUntil = now_ + 2 * cfg_.channelLatency;
            continue;
        }
        const MsgId msg = in.msg;
        const std::size_t purged = in.buf.purge();
        stats_->flitsPurged.inc(purged);
        stats_->bkillHops.inc();
        if (trace_ != nullptr) {
            trace_->record(TraceEventKind::BkillHop, msg, id_,
                           kInvalidNode, kInvalidNode, in.attempt,
                           hp);
        }
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
        CRNET_AUDIT_HOOK(audit_, onChannelReset(id_, hp, hv, msg));
        in.state = InputVc::State::Idle;
        in.purgeMsg = msg;
        in.msg = kInvalidMsg;
        in.stallCycles = 0;
        o.allocated = false;
        o.credits = cfg_.bufferDepth;
        o.quarantineUntil = now_ + 2 * cfg_.channelLatency;
        propagateUpstream(hp, hv, msg);
    }
    pendingBkillsAsOut_.clear();
}

void
Router::propagateUpstream(PortId in_port, VcId vc, MsgId msg)
{
    if (in_port >= injBase()) {
        sentAborts.push_back(SentAbort{
            static_cast<std::uint32_t>(in_port - injBase()), vc, msg});
        return;
    }
    sentBkills.push_back(SentBkill{in_port, vc});
}

void
Router::forwardKills()
{
    for (PortId p = 0; p < numInPorts_; ++p) {
        for (VcId v = 0; v < numVcs_; ++v) {
            InputVc& in = ivc(p, v);
            if (!in.killPending)
                continue;
            const PortId o = in.killOutPort;
            if (outPortBusy_[o])
                continue;  // Another kill claimed the channel; wait.
            outPortBusy_[o] = 1;
            const Flit& token = killFlit(p, v);
            sentFlits.push_back(SentFlit{o, in.killOutVc, token});
            stats_->killsForwarded.inc();
            if (trace_ != nullptr) {
                trace_->record(TraceEventKind::KillHop, token.msg, id_,
                               token.src, token.dst, token.attempt, o);
            }
            OutputVc& out = ovc(o, in.killOutVc);
            out.allocated = false;
            // Purged downstream flits never return credits; reset the
            // ledger to "empty" and quarantine against the one credit
            // that may still be in flight.
            out.credits = cfg_.bufferDepth;
            // In-flight credits can still arrive for up to two
            // channel traversals after the reset.
            out.quarantineUntil = now_ + 2 * cfg_.channelLatency;
            in.killPending = false;
        }
    }
}

void
Router::routeHeaders(Cycle now)
{
    for (PortId p = 0; p < numInPorts_; ++p) {
        for (VcId v = 0; v < numVcs_; ++v) {
            InputVc& in = ivc(p, v);
            if (in.state != InputVc::State::Routing)
                continue;
            if (in.buf.empty())
                panic("Routing-state VC with empty buffer at node ",
                      id_);
            Flit& head = in.buf.frontMutable();
            if (!head.isHead())
                panic("Routing-state VC without header at front");

            // FCR routers validate header integrity: a corrupted
            // header cannot be trusted to route, so it blocks until
            // the source timeout recovers the worm.
            if (cfg_.protocol == ProtocolKind::Fcr &&
                (head.corrupted || !head.checksumOk())) {
                continue;
            }

            bool allocated = false;
            if (head.dst == id_) {
                // Eject: claim any free ejection output VC.
                const auto ej_ports = static_cast<std::uint32_t>(
                    numOutPorts_ - ejBase());
                const auto start = static_cast<std::uint32_t>(
                    rng_.below(ej_ports));
                std::uint32_t ej = start;
                for (std::uint32_t i = 0; i < ej_ports && !allocated;
                     ++i, ej = ej + 1 == ej_ports ? 0 : ej + 1) {
                    const PortId ep = static_cast<PortId>(ejBase() + ej);
                    for (VcId ev = 0; ev < numVcs_; ++ev) {
                        OutputVc& o = ovc(ep, ev);
                        if (o.allocated ||
                            o.credits < cfg_.bufferDepth ||
                            now < o.quarantineUntil) {
                            continue;
                        }
                        o.allocated = true;
                        o.holderPort = p;
                        o.holderVc = v;
                        in.outPort = ep;
                        in.outVc = ev;
                        allocated = true;
                        break;
                    }
                }
            } else {
                scratch_.clear();
                algo_.candidates(id_, head, scratch_, rng_);
                for (const Candidate& c : scratch_) {
                    OutputVc& o = ovc(c.port, c.vc);
                    if (o.allocated || o.credits < cfg_.bufferDepth ||
                        now < o.quarantineUntil) {
                        continue;
                    }
                    o.allocated = true;
                    o.holderPort = p;
                    o.holderVc = v;
                    in.outPort = c.port;
                    in.outVc = c.vc;
                    if (c.escape)
                        stats_->escapeAllocations.inc();
                    if (c.misroute) {
                        stats_->misrouteHops.inc();
                        if (head.misrouteBudget > 0)
                            --head.misrouteBudget;
                    }
                    allocated = true;
                    break;
                }
            }

            if (allocated) {
                in.state = InputVc::State::Active;
                in.movedThisCycle = true;
                stats_->headersRouted.inc();
                in.blockTraced = false;
                if (trace_ != nullptr) {
                    trace_->record(TraceEventKind::HeadAdvance,
                                   head.msg, id_, head.src, head.dst,
                                   head.attempt, in.outPort);
                }
            } else if (trace_ != nullptr && !in.blockTraced) {
                in.blockTraced = true;
                trace_->record(TraceEventKind::Block, head.msg, id_,
                               head.src, head.dst, head.attempt, p);
            }
        }
    }
}

void
Router::allocateSwitch(Cycle)
{
    // Phase 1: each input port nominates one VC (round-robin scan),
    // and each output port keeps the nomination nearest after its
    // round-robin pointer. An input port nominates at most once, so
    // distances to one output are distinct and the kept nomination is
    // the one a full scan of every request would pick.
    for (PortId p = 0; p < numInPorts_; ++p) {
        VcId v = rrInVc_[p];
        for (std::uint32_t i = 0; i < numVcs_;
             ++i, v = v + 1u == numVcs_ ? 0 : static_cast<VcId>(v + 1)) {
            const InputVc& in = ivc(p, v);
            if (in.state != InputVc::State::Active || in.buf.empty())
                continue;
            if (outPortBusy_[in.outPort])
                continue;  // Channel taken by a kill this cycle.
            const OutputVc& o = ovc(in.outPort, in.outVc);
            if (o.credits == 0)
                continue;
            SwitchReq& best = switchBest_[in.outPort];
            const PortId rr = rrOutIn_[in.outPort];
            const auto dist = static_cast<PortId>(
                p >= rr ? p - rr : p + numInPorts_ - rr);
            if (best.inPort == kInvalidPort || dist < best.dist)
                best = SwitchReq{p, v, dist};
            break;  // One nomination per input port.
        }
    }

    // Phase 2: each output port moves its winner's flit, in port
    // order, and leaves its entry empty for the next tick.
    for (PortId o = 0; o < numOutPorts_; ++o) {
        SwitchReq& best = switchBest_[o];
        if (best.inPort == kInvalidPort)
            continue;
        const PortId wp = best.inPort;
        const VcId wv = best.inVc;
        best.inPort = kInvalidPort;
        InputVc& in = ivc(wp, wv);
        OutputVc& out = ovc(in.outPort, in.outVc);
        Flit flit = in.buf.pop();
        if (flit.isHead() && o < networkPorts_)
            algo_.onTraverse(id_, o, flit);
        --out.credits;
        sentFlits.push_back(SentFlit{o, in.outVc, flit});
        sentCredits.push_back(SentCredit{wp, wv});
        stats_->flitsForwarded.inc();
        if (heatTracking_)
            ++heatForwarded_[o];
        in.movedThisCycle = true;
        in.stallCycles = 0;
        rrInVc_[wp] = wv + 1u == numVcs_ ? 0 : static_cast<VcId>(wv + 1);
        rrOutIn_[o] = wp + 1u == numInPorts_ ? 0
                                             : static_cast<PortId>(wp + 1);
        if (flit.isTail()) {
            out.allocated = false;  // Credits drain back naturally.
            in.state = InputVc::State::Idle;
            in.msg = kInvalidMsg;
            if (!in.buf.empty())
                panic("flits behind a tail on one VC at node ", id_);
        }
    }
}

void
Router::killWormAt(PortId p, VcId v)
{
    InputVc& in = ivc(p, v);
    const MsgId msg = in.msg;
    const std::size_t purged = in.buf.purge();
    stats_->flitsPurged.inc(purged);
    stats_->pathWideKills.inc();
    if (trace_ != nullptr) {
        trace_->record(TraceEventKind::RouterKill, msg, id_,
                       kInvalidNode, kInvalidNode, in.attempt, p);
    }
    CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
    CRNET_AUDIT_HOOK(audit_, onChannelReset(id_, p, v, msg));

    if (in.state == InputVc::State::Active) {
        // Tear down toward the destination with a forward kill token.
        Flit token;
        token.type = FlitType::Kill;
        token.msg = msg;
        token.attempt = in.attempt;
        CRNET_AUDIT_HOOK(audit_, onKillIssued(msg, in.attempt));
        in.killPending = true;
        killFlit(p, v) = token;
        in.killOutPort = in.outPort;
        in.killOutVc = in.outVc;
    }
    // Tear down toward the source (reaches the injector, which
    // schedules the retransmission).
    propagateUpstream(p, v, msg);
    in.state = InputVc::State::Idle;
    in.purgeMsg = msg;
    in.msg = kInvalidMsg;
    in.stallCycles = 0;
}

void
Router::onOutputLinkDead(PortId out_port, Cycle now)
{
    for (VcId v = 0; v < numVcs_; ++v) {
        OutputVc& o = ovc(out_port, v);
        if (o.allocated) {
            // Tear the holding worm down toward its source exactly as
            // if a backward kill had arrived over the (now dead)
            // wire; the queue is processed first thing this tick, so
            // the chain reaches the injector before new traffic can
            // claim the stranded buffers.
            pendingBkillsAsOut_.push_back(SentBkill{out_port, v});
            stats_->linkDeathTeardowns.inc();
        } else {
            // Flits the far side purges never return credits; reset
            // the ledger and quarantine against credits still on the
            // wire from before the cut.
            o.credits = cfg_.bufferDepth;
            o.quarantineUntil = now + 2 * cfg_.channelLatency;
        }
    }
}

void
Router::onInputLinkDead(PortId in_port, Cycle now)
{
    for (VcId v = 0; v < numVcs_; ++v) {
        InputVc& in = ivc(in_port, v);
        if (in.state == InputVc::State::Idle)
            continue;  // Nothing stranded on this VC.
        const MsgId msg = in.msg;
        const std::size_t purged = in.buf.purge();
        stats_->flitsPurged.inc(purged);
        stats_->linkDeathTeardowns.inc();
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
        CRNET_AUDIT_HOOK(audit_, onChannelReset(id_, in_port, v, msg));
        if (in.state == InputVc::State::Active) {
            // The worm continues downstream. Its source's kill token
            // can no longer cross the dead wire, so the break point
            // issues the chasing token itself; it runs to the header
            // (annihilation) or to the receiver (discard/finalize).
            Flit token;
            token.type = FlitType::Kill;
            token.msg = msg;
            token.attempt = in.attempt;
            CRNET_AUDIT_HOOK(audit_, onKillIssued(msg, in.attempt));
            in.killPending = true;
            killFlit(in_port, v) = token;
            in.killOutPort = in.outPort;
            in.killOutVc = in.outVc;
        } else {
            // The header was still waiting here: it dies with the
            // wire, like a kill/header annihilation.
            stats_->killsAnnihilated.inc();
        }
        in.state = InputVc::State::Idle;
        in.purgeMsg = msg;
        in.msg = kInvalidMsg;
        in.stallCycles = 0;
    }
    (void)now;
}

void
Router::onOutputLinkRepaired(PortId out_port, Cycle now)
{
    for (VcId v = 0; v < numVcs_; ++v) {
        OutputVc& o = ovc(out_port, v);
        if (o.allocated) {
            // Routing never allocates an output over a dead link, and
            // the death-time teardown deallocated the old holder.
            panic("repaired output (", out_port, ", ", v, ") at node ",
                  id_, " is still allocated");
        }
        o.credits = cfg_.bufferDepth;
        o.quarantineUntil = now + 2 * cfg_.channelLatency;
    }
}

void
Router::checkRouterTimeouts()
{
    // PathWide watches every worm segment; DropAtBlock (the BBN
    // Butterfly / abort-and-retry discipline from the paper's related
    // work) only rejects worms whose *header* is blocked here.
    const bool headers_only =
        cfg_.timeoutScheme == TimeoutScheme::DropAtBlock;
    for (PortId p = 0; p < numInPorts_; ++p) {
        for (VcId v = 0; v < numVcs_; ++v) {
            InputVc& in = ivc(p, v);
            if (in.state == InputVc::State::Idle)
                continue;
            if (headers_only && in.state != InputVc::State::Routing)
                continue;
            const bool blocked = !in.movedThisCycle &&
                (in.state == InputVc::State::Routing ||
                 !in.buf.empty());
            if (!blocked)
                continue;
            if (++in.stallCycles > cfg_.timeout)
                killWormAt(p, v);
        }
    }
}

void
Router::tick(Cycle now)
{
    now_ = now;
    sentFlits.clear();
    sentCredits.clear();
    sentBkills.clear();
    sentAborts.clear();
    std::fill(outPortBusy_, outPortBusy_ + numOutPorts_,
              std::uint8_t{0});
    // One pass over the input VCs clears the progress flags and notes
    // which stages have anything to look at. Backward kills below only
    // idle VCs, so the notes stay a superset of the work; a stage with
    // no candidate VC would change nothing and draw no random number.
    bool kills = false;
    bool routing = false;
    bool active = false;
    const std::size_t nin = numInVcs();
    for (std::size_t i = 0; i < nin; ++i) {
        InputVc& in = inputs_[i];
        in.movedThisCycle = false;
        kills |= in.killPending;
        routing |= in.state == InputVc::State::Routing;
        active |= in.state == InputVc::State::Active;
    }

    processBkills();
    if (kills)
        forwardKills();
    if (routing)
        routeHeaders(now);
    if (routing || active)
        allocateSwitch(now);
    if (cfg_.timeoutScheme == TimeoutScheme::PathWide ||
        cfg_.timeoutScheme == TimeoutScheme::DropAtBlock) {
        checkRouterTimeouts();
    }
    if (heatTracking_)
        accumulateHeat();
}

void
Router::setHeatTracking(bool on)
{
    heatTracking_ = on;
    heatForwarded_.assign(on ? numOutPorts_ : 0, 0);
    heatBlocked_.assign(on ? numInPorts_ : 0, 0);
    heatOccupancy_ = 0;
}

std::uint64_t
Router::heatForwarded(PortId out_port) const
{
    return heatTracking_ ? heatForwarded_[out_port] : 0;
}

std::uint64_t
Router::heatBlocked(PortId in_port) const
{
    return heatTracking_ ? heatBlocked_[in_port] : 0;
}

void
Router::accumulateHeat()
{
    for (PortId p = 0; p < numInPorts_; ++p) {
        bool blocked = false;
        for (VcId v = 0; v < numVcs_; ++v) {
            const InputVc& in = ivc(p, v);
            heatOccupancy_ += in.buf.size();
            if (in.state == InputVc::State::Idle)
                continue;
            // Same notion of "blocked" as the path-wide timeout: the
            // worm holds the VC, made no progress this cycle, and has
            // something to move (a waiting header counts).
            if (!in.movedThisCycle &&
                (in.state == InputVc::State::Routing ||
                 !in.buf.empty())) {
                blocked = true;
            }
        }
        if (blocked)
            ++heatBlocked_[p];
    }
}

bool
Router::idle() const
{
    const std::size_t nin = numInVcs();
    for (std::size_t i = 0; i < nin; ++i) {
        const InputVc& in = inputs_[i];
        if (in.state != InputVc::State::Idle || !in.buf.empty() ||
            in.killPending) {
            return false;
        }
    }
    return pendingBkillsAsOut_.empty();
}

std::uint64_t
Router::bufferedFlits() const
{
    std::uint64_t n = 0;
    const std::size_t nin = numInVcs();
    for (std::size_t i = 0; i < nin; ++i)
        n += inputs_[i].buf.size();
    return n;
}

bool
Router::vcIdle(PortId in_port, VcId vc) const
{
    return ivc(in_port, vc).state == InputVc::State::Idle;
}

Router::InputProbe
Router::inputProbe(PortId in_port, VcId vc) const
{
    const InputVc& in = ivc(in_port, vc);
    InputProbe p;
    switch (in.state) {
      case InputVc::State::Idle: p.state = VcState::Idle; break;
      case InputVc::State::Routing: p.state = VcState::Routing; break;
      case InputVc::State::Active: p.state = VcState::Active; break;
    }
    p.msg = in.msg;
    p.attempt = in.attempt;
    p.buffered = static_cast<std::uint32_t>(in.buf.size());
    p.stallCycles = in.stallCycles;
    p.killPending = in.killPending;
    p.outPort = in.outPort;
    p.outVc = in.outVc;
    p.headArrivedAt = in.headArrivedAt;
    return p;
}

std::uint32_t
Router::inputOccupancy(PortId in_port, VcId vc) const
{
    return static_cast<std::uint32_t>(ivc(in_port, vc).buf.size());
}

bool
Router::inputKillPending(PortId in_port, VcId vc) const
{
    return ivc(in_port, vc).killPending;
}

Router::OutputProbe
Router::outputProbe(PortId out_port, VcId vc) const
{
    const OutputVc& o = ovc(out_port, vc);
    return OutputProbe{o.allocated, o.credits, o.quarantineUntil};
}

template <typename Io>
void
Router::serialize(Io& io)
{
    const std::size_t nin = numInVcs();
    for (std::size_t i = 0; i < nin; ++i) {
        InputVc& in = inputs_[i];
        serializeFlits(io, in.buf);
        io.enumU8(in.state, InputVc::State::Active);
        io.u64(in.msg);
        io.u16(in.attempt);
        io.u16(in.outPort);
        io.u16(in.outVc);
        io.u64(in.stallCycles);
        io.u64(in.headArrivedAt);
        io.b(in.movedThisCycle);
        io.b(in.blockTraced);
        io.b(in.killPending);
        serializeFlit(io, killFlits_[i]);
        io.u16(in.killOutPort);
        io.u16(in.killOutVc);
        io.u64(in.purgeMsg);
        if constexpr (Io::kLoading) {
            const bool active = in.state == InputVc::State::Active;
            checkedIndexOrUnset(in.outPort, numOutPorts_, active,
                                "input-VC output port");
            checkedIndexOrUnset(in.outVc, numVcs_, active,
                                "input-VC output VC");
            checkedIndexOrUnset(in.killOutPort, numOutPorts_,
                                in.killPending, "kill output port");
            checkedIndexOrUnset(in.killOutVc, numVcs_, in.killPending,
                                "kill output VC");
        }
    }
    const std::size_t nout = numOutVcs();
    for (std::size_t i = 0; i < nout; ++i) {
        OutputVc& out = outputs_[i];
        io.b(out.allocated);
        io.u16(out.holderPort);
        io.u16(out.holderVc);
        io.u32(out.credits);
        io.b(out.ejection);
        io.u64(out.quarantineUntil);
        if constexpr (Io::kLoading) {
            checkedIndexOrUnset(out.holderPort, numInPorts_,
                                out.allocated, "output-VC holder port");
            checkedIndexOrUnset(out.holderVc, numVcs_, out.allocated,
                                "output-VC holder VC");
        }
    }
    lengthPrefixed(io, pendingBkillsAsOut_, [&io, this](SentBkill& bk) {
        io.u16(bk.inPort);
        io.u16(bk.vc);
        if constexpr (Io::kLoading) {
            checkedIndex(bk.inPort, numOutPorts_, "bkill output port");
            checkedIndex(bk.vc, numVcs_, "bkill output VC");
        }
    });
    for (PortId p = 0; p < numInPorts_; ++p) {
        io.u16(rrInVc_[p]);
        if constexpr (Io::kLoading)
            checkedIndex(rrInVc_[p], numVcs_, "input round-robin VC");
    }
    for (PortId p = 0; p < numOutPorts_; ++p) {
        io.u16(rrOutIn_[p]);
        if constexpr (Io::kLoading)
            checkedIndex(rrOutIn_[p], numInPorts_,
                         "output round-robin input port");
    }
    fixedFlag(io, heatTracking_, "heat-tracking");
    if (heatTracking_) {
        for (std::uint64_t& v : heatForwarded_)
            io.u64(v);
        for (std::uint64_t& v : heatBlocked_)
            io.u64(v);
        io.u64(heatOccupancy_);
    }
    serializeRng(io, rng_);
    io.u64(now_);
    if constexpr (Io::kLoading) {
        sentFlits.clear();
        sentCredits.clear();
        sentBkills.clear();
        sentAborts.clear();
    }
}

template void Router::serialize(StateWriter&);
template void Router::serialize(StateReader&);

} // namespace crnet
