/**
 * @file
 * A routing candidate list with its own storage, for tests that call a
 * routing relation directly (the router binds its list to a pool).
 */

#ifndef CRNET_TESTS_CANDIDATE_BUFFER_HH
#define CRNET_TESTS_CANDIDATE_BUFFER_HH

#include <array>

#include "src/routing/routing.hh"

namespace crnet {

/** Storage base, initialized before the list that points into it. */
struct CandidateSlots
{
    std::array<Candidate, 64> slots{};
};

/** CandidateList over 64 inline slots (more than any test emits). */
class CandidateBuffer : private CandidateSlots, public CandidateList
{
  public:
    CandidateBuffer() : CandidateList(slots.data(), slots.size()) {}

    CandidateBuffer(const CandidateBuffer&) = delete;
    CandidateBuffer& operator=(const CandidateBuffer&) = delete;
};

} // namespace crnet

#endif // CRNET_TESTS_CANDIDATE_BUFFER_HH
