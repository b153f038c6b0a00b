/**
 * @file
 * CRC-8 (polynomial 0x07, "CRC-8/SMBUS") used to model FCR's per-flit
 * integrity check.
 *
 * The paper's routers carry per-flit parity/checksum in hardware; we
 * model the same detection capability with a CRC over the flit payload.
 * Fault injection flips payload bits, so a corrupted flit fails the
 * check exactly as it would in hardware (we do not model undetectable
 * multi-bit aliasing; the fault model flags corruption explicitly and
 * the CRC is used to demonstrate the mechanism end to end).
 */

#ifndef CRNET_SIM_CHECKSUM_HH
#define CRNET_SIM_CHECKSUM_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace crnet {

namespace detail {

constexpr std::array<std::uint8_t, 256>
makeCrc8Table()
{
    std::array<std::uint8_t, 256> table{};
    for (int i = 0; i < 256; ++i) {
        std::uint8_t crc = static_cast<std::uint8_t>(i);
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                               : static_cast<std::uint8_t>(crc << 1);
        table[static_cast<std::size_t>(i)] = crc;
    }
    return table;
}

/**
 * The lookup table, one object per program. (A function-local
 * constexpr table is rebuilt on the stack on every call.)
 */
inline constexpr std::array<std::uint8_t, 256> kCrc8Table =
    makeCrc8Table();

} // namespace detail

/** CRC-8/SMBUS over a byte stream (init 0, poly 0x07, no reflection). */
constexpr std::uint8_t
crc8(const std::uint8_t* data, std::size_t len)
{
    std::uint8_t crc = 0;
    for (std::size_t i = 0; i < len; ++i)
        crc = detail::kCrc8Table[static_cast<std::size_t>(crc ^ data[i])];
    return crc;
}

/** CRC-8 over a 64-bit word (flit payload), low byte first. */
constexpr std::uint8_t
crc8(std::uint64_t payload)
{
    std::array<std::uint8_t, 8> bytes{};
    for (int byte = 0; byte < 8; ++byte)
        bytes[static_cast<std::size_t>(byte)] =
            static_cast<std::uint8_t>(payload >> (8 * byte));
    return crc8(bytes.data(), bytes.size());
}

namespace detail {

constexpr std::array<std::uint32_t, 256>
makeCrc32Table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
        table[i] = crc;
    }
    return table;
}

/** The CRC-32 lookup table, one object per program. */
inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    makeCrc32Table();

} // namespace detail

/**
 * CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over a byte stream.
 * Guards snapshot payloads and campaign-journal records (see
 * docs/ROBUSTNESS.md): a torn write or bit flip fails the check, so a
 * resume can fall back to the last good record instead of silently
 * loading garbage. Pass a previous result as `seed` to checksum a
 * stream incrementally.
 */
constexpr std::uint32_t
crc32(const std::uint8_t* data, std::size_t len,
      std::uint32_t seed = 0)
{
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < len; ++i)
        crc = detail::kCrc32Table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
    return ~crc;
}

} // namespace crnet

#endif // CRNET_SIM_CHECKSUM_HH
