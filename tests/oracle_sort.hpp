/**
 * @file
 * The tie-order oracle of every host sort: each aligned block of the
 * presort run length through the presort network (std::sort on a tail
 * whose length is not a power of two, as the presorter does), then
 * std::stable_sort of the whole.  The presort network is not stable;
 * every merge after it is, so a host sort's output, ties included,
 * must equal this for every budget, chunk, fan-in, batch, thread
 * count, store and resume.
 */

#ifndef BONSAI_TESTS_ORACLE_SORT_HPP
#define BONSAI_TESTS_ORACLE_SORT_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hw/bitonic.hpp"

namespace bonsai
{

/** @p data as the host sorters leave it, at presort run @p run. */
template <typename RecordT>
std::vector<RecordT>
oracleSort(std::vector<RecordT> data, std::uint64_t run = 16)
{
    for (std::uint64_t lo = 0; lo < data.size(); lo += run) {
        const std::span<RecordT> block(
            data.data() + lo, std::min<std::uint64_t>(run, data.size() - lo));
        if (hw::isPow2(block.size()))
            hw::bitonicSortNetwork(block);
        else
            std::sort(block.begin(), block.end());
    }
    std::stable_sort(data.begin(), data.end());
    return data;
}

} // namespace bonsai

#endif // BONSAI_TESTS_ORACLE_SORT_HPP
