/**
 * @file
 * The tie-order oracle of every host sort: std::stable_sort of the
 * input.  The presort and every merge after it are stable, so a host
 * sort's output, ties included, must equal this for every budget,
 * chunk, fan-in, batch, presort run, thread count, store and resume.
 */

#ifndef BONSAI_TESTS_ORACLE_SORT_HPP
#define BONSAI_TESTS_ORACLE_SORT_HPP

#include <algorithm>
#include <vector>

namespace bonsai
{

/** @p data as the host sorters leave it. */
template <typename RecordT>
std::vector<RecordT>
oracleSort(std::vector<RecordT> data)
{
    std::stable_sort(data.begin(), data.end());
    return data;
}

} // namespace bonsai

#endif // BONSAI_TESTS_ORACLE_SORT_HPP
