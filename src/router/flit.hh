/**
 * @file
 * Flit: the unit of flow control in the wormhole network.
 *
 * A message (worm) is serialized as Head, Body*, Pad*, Tail. Pad flits
 * are CR/FCR padding: they carry no payload and are stripped by the
 * receiver. Kill is not message data; it is the forward kill token that
 * tears down a worm's path (modeled in-band because that is how it
 * travels in hardware: on the same wires, ignoring buffer credits).
 */

#ifndef CRNET_ROUTER_FLIT_HH
#define CRNET_ROUTER_FLIT_HH

#include <cstdint>

#include "src/sim/checksum.hh"
#include "src/sim/types.hh"

namespace crnet {

/** Kind of flit. */
enum class FlitType : std::uint8_t { Head, Body, Pad, Tail, Kill };

/**
 * One flow-control unit. Fields are ordered widest first so the struct
 * packs into one 64-byte cache line (buffers and wave registers copy
 * it on every hop); snapshots serialize it field by field in their own
 * fixed order, independent of this layout.
 */
struct Flit
{
    MsgId msg = kInvalidMsg;

    // --- Header-only metadata (meaningful when type == Head or, for
    // --- bookkeeping, copied onto Kill tokens) -----------------------
    /** Cycle the message was created (total-latency measurement). */
    Cycle createdAt = 0;
    /** Cycle this attempt's head entered the network. */
    Cycle headInjectedAt = 0;

    /** Modeled data word; CRC is computed over this. */
    std::uint64_t payload = 0;

    std::uint32_t seq = 0;       //!< Position in the worm; head is 0.
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /** Payload flits in the message, including the head flit. */
    std::uint32_t payloadLen = 0;
    /** Per-(src,dst) message sequence number (order checking). */
    std::uint32_t pairSeq = 0;

    /** Which transmission attempt of the message this flit belongs to. */
    std::uint16_t attempt = 0;

    FlitType type = FlitType::Body;

    /**
     * Dateline/escape class used by DOR and Duato routing; updated by
     * RoutingAlgorithm::onTraverse as the head crosses datelines.
     * Meaningful on Head flits only (body flits follow the worm's path).
     */
    std::uint8_t vcClass = 0;

    /** Remaining non-minimal hops this header may take (FCR retries). */
    std::uint8_t misrouteBudget = 0;

    /** Message is eligible for statistics (measurement window). */
    bool measured = false;

    /** Checksum as computed by the sender over the original payload. */
    std::uint8_t crc = 0;

    /**
     * Set by the fault model when a transient fault hits this flit.
     * The payload is scrambled at the same time, so `checksumOk()`
     * reports the corruption just as receiver hardware would.
     */
    bool corrupted = false;

    bool isHead() const { return type == FlitType::Head; }
    bool isTail() const { return type == FlitType::Tail; }
    bool isKill() const { return type == FlitType::Kill; }
    /** Data flit = anything that is part of the worm itself. */
    bool isData() const { return type != FlitType::Kill; }

    /** Recompute and store the CRC over the current payload. */
    void stampCrc() { crc = crc8(payload); }

    /** True when the payload still matches its checksum. */
    bool checksumOk() const { return crc8(payload) == crc; }
};

static_assert(sizeof(Flit) == 64, "Flit must fill exactly one cache line");

} // namespace crnet

#endif // CRNET_ROUTER_FLIT_HH
