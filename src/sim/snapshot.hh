/**
 * @file
 * Versioned, checksummed checkpoint/restore for full simulator state.
 *
 * A snapshot captures everything the Network mutates while ticking —
 * RNG streams, channel/wave rings, router and NIC state, statistics,
 * trace/timeseries/audit sidecars, and the active-set scheduler — so
 * that save-at-cycle-C → restore → continue is byte-identical to an
 * uninterrupted run (docs/ROBUSTNESS.md documents the format and the
 * compatibility policy).
 *
 * Layout discipline: each type's serialize() is its layout spec — one
 * field list that both writes and reads, little-endian, in a fixed
 * order. Unordered containers go through sortedByKey(), so the payload
 * bytes are independent of hash-table layout.
 * The on-disk container is `CRNETSNP` + version + config fingerprint
 * + payload + CRC-32 trailer, written via write-temp/fsync/rename so
 * a crash mid-write can never leave a torn file in place of a good
 * one.
 */

#ifndef CRNET_SIM_SNAPSHOT_HH
#define CRNET_SIM_SNAPSHOT_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/annotations.hh"
#include "src/router/buffer.hh"
#include "src/router/flit.hh"
#include "src/sim/log.hh"
#include "src/sim/rng.hh"
#include "src/sim/types.hh"
#include "src/traffic/message.hh"

namespace crnet {

class Network;
struct SimConfig;

/** Snapshot container format version (bump on any layout change). */
inline constexpr std::uint32_t kSnapshotVersion = 3;

/**
 * Append-only little-endian byte sink for snapshot payloads.
 *
 * StateWriter and StateReader share their field methods, so one
 * `template <typename Io> serialize(Io&)` per type names each field
 * once and serves both directions: the writer reads the field, the
 * reader assigns it. Work only a restore does sits behind
 * `if constexpr (Io::kLoading)`.
 *
 * Not performance-critical (runs between ticks, never inside them),
 * so it favors an explicit, greppable field order over clever
 * packing.
 */
class StateWriter
{
  public:
    static constexpr bool kLoading = false;

    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    /** Exact bit pattern; round-trips NaNs and signed zeros. */
    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    str(const std::string& s)
    {
        u64(s.size());
        for (char c : s)
            u8(static_cast<std::uint8_t>(c));
    }

    /** An element count (the reader bounds it by the bytes left). */
    void
    length(std::uint64_t n)
    {
        u64(n);
    }

    /** An enum stored as one byte; `last` is its highest value. */
    template <typename E>
    void
    enumU8(E e, E /*last*/)
    {
        u8(static_cast<std::uint8_t>(e));
    }

    /**
     * Nested length-prefixed block. A reader that does not want the
     * block's contents (e.g. no tracer attached on restore) can skip
     * it wholesale without knowing its internal layout.
     */
    void
    block(const StateWriter& inner)
    {
        u64(inner.bytes_.size());
        bytes_.insert(bytes_.end(), inner.bytes_.begin(),
                      inner.bytes_.end());
    }

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked reader over a snapshot payload.
 *
 * The container CRC is verified before any parsing, so an overrun or
 * an out-of-range value here means a version-skew or serialization
 * bug, not disk corruption — it panics rather than limping on with
 * garbage state. The value-returning forms parse container headers;
 * the reference forms mirror StateWriter for serialize().
 */
class StateReader
{
  public:
    static constexpr bool kLoading = true;

    StateReader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit StateReader(const std::vector<std::uint8_t>& bytes)
        : StateReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        const std::uint16_t hi = u8();
        return static_cast<std::uint16_t>(lo | (hi << 8));
    }

    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        const std::uint32_t hi = u16();
        return lo | (hi << 16);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        const std::uint64_t hi = u32();
        return lo | (hi << 32);
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    double
    f64()
    {
        return std::bit_cast<double>(u64());
    }

    bool
    b()
    {
        return u8() != 0;
    }

    std::string
    str()
    {
        const std::uint64_t len = u64();
        need(len);
        std::string s(reinterpret_cast<const char*>(data_ + pos_),
                      static_cast<std::size_t>(len));
        pos_ += static_cast<std::size_t>(len);
        return s;
    }

    void u8(std::uint8_t& v) { v = u8(); }
    void u16(std::uint16_t& v) { v = u16(); }
    void u32(std::uint32_t& v) { v = u32(); }
    void u64(std::uint64_t& v) { v = u64(); }
    void i64(std::int64_t& v) { v = i64(); }
    void f64(double& v) { v = f64(); }
    void b(bool& v) { v = b(); }
    void str(std::string& s) { s = str(); }

    /**
     * An element count. Every element takes at least one byte, so a
     * count above the bytes left is refused here, before anything
     * sizes a container by it.
     */
    void
    length(std::uint64_t& n)
    {
        n = u64();
        if (n > remaining())
            panic("snapshot count ", n, " exceeds the ", remaining(),
                  " payload bytes left (version skew or "
                  "serialization bug)");
    }

    /** An enum stored as one byte, checked against its last value. */
    template <typename E>
    void
    enumU8(E& e, E last)
    {
        const std::uint8_t v = u8();
        if (v > static_cast<std::uint8_t>(last))
            panic("snapshot enum byte ", static_cast<unsigned>(v),
                  " beyond its last value ",
                  static_cast<unsigned>(last),
                  " (version skew or serialization bug)");
        e = static_cast<E>(v);
    }

    /** Skip n bytes (e.g. an unwanted length-prefixed block). */
    void
    skip(std::uint64_t n)
    {
        need(n);
        pos_ += static_cast<std::size_t>(n);
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > size_ - pos_)
            panic("snapshot payload overrun: need ", n, " bytes at ",
                  pos_, "/", size_,
                  " (version skew or serialization bug)");
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** An in-memory snapshot: cycle, config identity, and state bytes. */
struct Snapshot
{
    /** Cycle count at capture (restore resumes from here). */
    Cycle at = 0;
    /** Fingerprint of the SimConfig the state belongs to. */
    std::uint64_t fingerprint = 0;
    /** Serialized Network state. */
    std::vector<std::uint8_t> payload;
};

/**
 * 64-bit fingerprint over every semantic SimConfig field (plus the
 * audit-build bit). Excludes the fields proven not to change state:
 * `traceFile` (a restore may attach a different trace path), `jobs`
 * (campaign parallelism), `sched` and `shards` (byte-identical wake
 * policies and shard counts), and the telemetry keys `statusFile`,
 * `statusEverySeconds` and `profileEnabled`. Restore refuses a
 * snapshot whose fingerprint differs from the target network's
 * config: restoring into a differently-shaped network would corrupt
 * state silently.
 */
std::uint64_t configFingerprint(const SimConfig& cfg);

/** Serialize the full mutable state of `net` at its current cycle. */
Snapshot captureSnapshot(const Network& net);

/**
 * Restore `snap` into `net` (which must be freshly constructed from a
 * config with a matching fingerprint). Returns "" on success or a
 * human-readable error ("config fingerprint mismatch ...") on
 * refusal; on refusal `net` is untouched.
 */
std::string restoreSnapshot(Network& net, const Snapshot& snap);

/**
 * Write `snap` to `path` atomically (temp file + fsync + rename).
 * Returns "" on success or an error message.
 */
std::string writeSnapshotFile(const std::string& path,
                              const Snapshot& snap);

/**
 * Read and validate a snapshot file: magic, version, CRC-32 trailer.
 * Returns "" and fills `out` on success; otherwise an error message
 * (truncated file, bad magic, version or CRC mismatch) and `out` is
 * untouched. Never panics on corrupt input — callers decide whether
 * to fall back or abort.
 */
std::string readSnapshotFile(const std::string& path, Snapshot& out);

// --- Shared serialization helpers --------------------------------------
//
// Each rule of the payload layout is written once here: counts,
// sorted walks over hash containers, config-fixed sizes, optional
// sidecar blocks and index checks. Every helper serves both
// directions, like the serialize() functions that call it.

/**
 * A variable-length container as a length() count plus each element
 * through `field(element&)`, in container order. The reader clears
 * `seq` and appends what it reads.
 */
template <typename Io, typename Seq, typename Field>
void
lengthPrefixed(Io& io, Seq& seq, Field&& field)
{
    std::uint64_t n = seq.size();
    io.length(n);
    if constexpr (Io::kLoading) {
        seq.clear();
        if constexpr (requires { seq.reserve(n); }) {
            seq.reserve(static_cast<std::size_t>(n));
        } else if constexpr (requires { seq.capacity(); }) {
            // A fixed-capacity list (a pool slice) cannot grow.
            if (n > seq.capacity())
                panic("snapshot sequence of ", n, " entries exceeds "
                      "its capacity ", seq.capacity(),
                      " (version skew or serialization bug)");
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            typename Seq::value_type v{};
            field(v);
            seq.push_back(std::move(v));
        }
    } else {
        for (auto& v : seq)
            field(v);
    }
}

/**
 * The entries of an unordered map (as `std::pair<Key, T>`) or set (as
 * `Key`), copied out in ascending key order: the one place snapshot
 * code walks a hash container.
 */
template <typename Unordered>
CRNET_ALLOW("unordered-iter",
            "copies a hash container out and sorts it by key, so "
            "nothing downstream depends on hash order")
auto
sortedCopy(const Unordered& unordered)
{
    using Key = typename Unordered::key_type;
    if constexpr (requires { typename Unordered::mapped_type; }) {
        std::vector<std::pair<Key, typename Unordered::mapped_type>>
            out(unordered.begin(), unordered.end());
        std::sort(out.begin(), out.end(),
                  [](const auto& a, const auto& b) {
                      return a.first < b.first;
                  });
        return out;
    } else {
        std::vector<Key> out(unordered.begin(), unordered.end());
        std::sort(out.begin(), out.end());
        return out;
    }
}

/**
 * An unordered map or set as a lengthPrefixed() sequence of its
 * entries in ascending key order, so the bytes never depend on hash
 * layout. `entry` gets a `std::pair<Key, T>&` for a map and a `Key&`
 * for a set. The reader clears `unordered` and inserts what it reads.
 */
template <typename Io, typename Unordered, typename Entry>
void
sortedByKey(Io& io, Unordered& unordered, Entry&& entry)
{
    decltype(sortedCopy(unordered)) items;
    if constexpr (!Io::kLoading)
        items = sortedCopy(unordered);
    lengthPrefixed(io, items, entry);
    if constexpr (Io::kLoading) {
        unordered.clear();
        unordered.reserve(items.size());
        unordered.insert(items.begin(), items.end());
    }
}

/**
 * A size the config fixes (bucket ring, link map, mirror arrays):
 * written on save; a different saved size on load means the payload
 * does not belong to this network, so it panics.
 */
template <typename Io>
void
fixedSize(Io& io, std::uint64_t have, const char* what)
{
    std::uint64_t saved = have;
    io.u64(saved);
    if (saved != have)
        panic(what, " size mismatch on restore: saved ", saved,
              ", have ", have);
}

/** A presence bit the config fixes: written on save, must match. */
template <typename Io>
void
fixedFlag(Io& io, bool have, const char* what)
{
    bool saved = have;
    io.b(saved);
    if (saved != have)
        panic(what, " mismatch on restore (saved ", saved, ", have ",
              have, ")");
}

/**
 * An optional sidecar outside the config fingerprint (tracer,
 * ledger): a presence bit, then `target->serialize()` as a
 * length-prefixed block. A reader without a target skips the block
 * and returns true; one with a target checks that it consumed
 * exactly the block.
 */
template <typename Io, typename T>
bool
optionalBlock(Io& io, T* target, const char* what)
{
    bool present = target != nullptr;
    io.b(present);
    if (!present)
        return false;
    if constexpr (Io::kLoading) {
        std::uint64_t len = 0;
        io.length(len);
        if (target == nullptr) {
            io.skip(len);
            return true;
        }
        const std::size_t before = io.remaining();
        target->serialize(io);
        if (before - io.remaining() != len)
            panic(what, " block size mismatch on restore");
    } else {
        StateWriter inner;
        target->serialize(inner);
        io.block(inner);
    }
    return false;
}

/** An index read from a payload, checked before it indexes anything. */
inline std::size_t
checkedIndex(std::uint64_t index, std::uint64_t bound, const char* what)
{
    if (index >= bound)
        panic("snapshot ", what, " ", index, " out of range [0, ", bound,
              ") (version skew or serialization bug)");
    return static_cast<std::size_t>(index);
}

/**
 * A port or VC index read from a payload: in [0, bound) whenever the
 * state that uses it is `live`, otherwise also allowed to hold the
 * never-assigned sentinel (the type's maximum).
 */
template <typename Index>
void
checkedIndexOrUnset(Index index, std::uint64_t bound, bool live,
                    const char* what)
{
    if (!live && index == std::numeric_limits<Index>::max())
        return;
    checkedIndex(index, bound, what);
}

/** RNG stream: the four raw xoshiro256** words. */
template <typename Io>
void
serializeRng(Io& io, Rng& rng)
{
    std::array<std::uint64_t, 4> words = rng.state();
    for (std::uint64_t& word : words)
        io.u64(word);
    if constexpr (Io::kLoading)
        rng.setState(words);
}

template <typename Io>
void
serializeFlit(Io& io, Flit& f)
{
    io.enumU8(f.type, FlitType::Kill);
    io.u64(f.msg);
    io.u32(f.seq);
    io.u32(f.src);
    io.u32(f.dst);
    io.u8(f.vcClass);
    io.u8(f.misrouteBudget);
    io.u16(f.attempt);
    io.u32(f.payloadLen);
    io.u32(f.pairSeq);
    io.u64(f.createdAt);
    io.u64(f.headInjectedAt);
    io.b(f.measured);
    io.u64(f.payload);
    io.u8(f.crc);
    io.b(f.corrupted);
}

/** A flit FIFO's contents, oldest first, as a counted sequence. */
template <typename Io>
void
serializeFlits(Io& io, FlitBuffer& buf)
{
    std::uint64_t n = buf.size();
    io.length(n);
    if constexpr (Io::kLoading)
        buf.purge();
    for (std::uint64_t i = 0; i < n; ++i) {
        Flit f;
        if constexpr (!Io::kLoading)
            f = buf.peek(static_cast<std::size_t>(i));
        serializeFlit(io, f);
        if constexpr (Io::kLoading)
            buf.push(f);
    }
}

template <typename Io>
void
serializeMessage(Io& io, PendingMessage& m)
{
    io.u64(m.id);
    io.u32(m.src);
    io.u32(m.dst);
    io.u32(m.payloadLen);
    io.u64(m.createdAt);
    io.u32(m.pairSeq);
    io.u16(m.attempt);
    io.u64(m.notBefore);
    io.b(m.measured);
}

// --- Crash-safe file primitives (shared with the campaign journal) ---

/**
 * Write `bytes` to `path` via temp file + fflush + fsync + rename, so
 * a crash at any point leaves either the old file or the new one,
 * never a torn mix. Returns "" on success or an errno-derived error.
 */
std::string atomicWriteFile(const std::string& path,
                            const std::vector<std::uint8_t>& bytes);

/**
 * Read a whole file into `out`. Returns "" on success or an error
 * message ("no such file" is an error too — callers treat a missing
 * journal/snapshot as a cold start).
 */
std::string readFileBytes(const std::string& path,
                          std::vector<std::uint8_t>& out);

} // namespace crnet

#endif // CRNET_SIM_SNAPSHOT_HH
