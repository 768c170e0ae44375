/**
 * @file
 * Bitonic sorting / merging networks (Batcher 1968).
 *
 * These model the combinational networks inside the hardware blocks:
 *
 *  - a 2k-record bitonic *half-merger* merges two sorted k-record arrays
 *    per cycle; it has log2(2k) compare-and-exchange stages of k CAS
 *    units each (paper Section "Hardware Mergers");
 *  - a k-record bitonic *sorting network* is the presorter that forms
 *    16-record runs before the first merge stage (Section VI-C1).
 *
 * The functions here execute the exact network (same sequence of
 * compare-and-exchange operations the hardware wires up), so unit tests
 * can validate them with the 0-1 principle, and the resource estimator
 * can count CAS units from the same stage structure.
 *
 * bitonicSortNetwork is the cycle simulator's presorter.  The network
 * is not stable; the swap rule below (swap only on strict less, in
 * either direction) fixes the order it leaves equal keys in.
 */

#ifndef BONSAI_HW_BITONIC_HPP
#define BONSAI_HW_BITONIC_HPP

#include <cstdint>
#include <span>
#include <utility>

#include "common/contract.hpp"

namespace bonsai::hw
{

/** True iff @p n is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
log2Exact(std::uint64_t n)
{
    BONSAI_REQUIRE(isPow2(n), "log2Exact needs a power of two");
    unsigned l = 0;
    while (n > 1) {
        n >>= 1;
        ++l;
    }
    return l;
}

/** One compare-and-exchange: after the call data[lo] <= data[hi]. */
template <typename RecordT>
void
compareExchange(std::span<RecordT> data, std::size_t lo, std::size_t hi)
{
    if (data[hi] < data[lo])
        std::swap(data[lo], data[hi]);
}

/**
 * Bitonic merge network on @p data (size must be a power of two).
 * Sorts any *bitonic* input sequence ascending.  This is the
 * half-merger datapath: log2(n) stages, n/2 CAS per stage.
 */
template <typename RecordT>
void
bitonicMergeNetwork(std::span<RecordT> data)
{
    const std::size_t n = data.size();
    BONSAI_REQUIRE(isPow2(n), "merge network width must be a power of two");
    for (std::size_t stride = n / 2; stride >= 1; stride /= 2) {
        for (std::size_t i = 0; i < n; ++i) {
            if ((i & stride) == 0)
                compareExchange(data, i, i + stride);
        }
    }
}

/**
 * Merge two ascending sorted halves in place: data = [a | b] with both
 * halves sorted ascending; on return data is fully sorted.  Implemented
 * by reversing b to form a bitonic sequence and running the merge
 * network, exactly as the hardware half-merger does.
 */
template <typename RecordT>
void
mergeSortedHalves(std::span<RecordT> data)
{
    const std::size_t n = data.size();
    BONSAI_REQUIRE(isPow2(n) && n >= 2,
                   "half-merge needs a power-of-two width >= 2");
    for (std::size_t i = 0; i < n / 4; ++i)
        std::swap(data[n / 2 + i], data[n - 1 - i]);
    bitonicMergeNetwork(data);
}

/**
 * Full bitonic sorting network on @p data (size must be a power of
 * two).  Used by the presorter (16-record network in the paper).
 */
template <typename RecordT>
void
bitonicSortNetwork(std::span<RecordT> data)
{
    const std::size_t n = data.size();
    BONSAI_REQUIRE(isPow2(n), "sort network width must be a power of two");
    for (std::size_t block = 2; block <= n; block *= 2) {
        // Descending/ascending alternation realised by direction bit.
        for (std::size_t stride = block / 2; stride >= 1; stride /= 2) {
            for (std::size_t i = 0; i < n; ++i) {
                if ((i & stride) != 0)
                    continue;
                const bool ascending = ((i & block) == 0);
                if (ascending) {
                    compareExchange(data, i, i + stride);
                } else {
                    if (data[i] < data[i + stride])
                        std::swap(data[i], data[i + stride]);
                }
            }
        }
    }
}

/**
 * Number of compare-and-exchange units in a 2k-record bitonic
 * half-merger: log2(2k) stages x k CAS (paper: "log k steps, k
 * compare-and-exchange operations", with logic Theta(k log k)).
 */
constexpr std::uint64_t
casCountHalfMerger(std::uint64_t k)
{
    BONSAI_REQUIRE(isPow2(k), "half-merger width must be a power of two");
    return k * log2Exact(2 * k);
}

/** Number of CAS units in an n-record bitonic sorting network. */
constexpr std::uint64_t
casCountSorter(std::uint64_t n)
{
    BONSAI_REQUIRE(isPow2(n), "sorter width must be a power of two");
    const std::uint64_t stages =
        log2Exact(n) * (log2Exact(n) + 1) / 2;
    return stages * (n / 2);
}

/** Pipeline latency (cycles) of a k-merger: two 2k-record half-mergers
 *  in sequence, each with log2(2k) stages. */
constexpr std::uint64_t
mergerLatency(std::uint64_t k)
{
    BONSAI_REQUIRE(isPow2(k), "merger width must be a power of two");
    return 2 * log2Exact(2 * k);
}

} // namespace bonsai::hw

#endif // BONSAI_HW_BITONIC_HPP
