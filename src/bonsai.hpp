/**
 * @file
 * Umbrella header: the Bonsai library's public API in one include.
 *
 *   #include "bonsai.hpp"
 *
 *   std::vector<bonsai::Record> data = ...;
 *   bonsai::sorter::DramSorter sorter;      // AWS F1 preset
 *   auto report = sorter.sort(data, 4);     // r = 4-byte records
 *
 * Layering (see DESIGN.md):
 *   common/  records, generators, validation
 *   sim/     cycle engine primitives
 *   hw/      hardware blocks (mergers, loader, ...)
 *   mem/     memory timing models
 *   amt/     tree structure + simulator instances
 *   model/   performance / resource models (Eqs. 1-10)
 *   core/    the Bonsai optimizer, planners, platform presets
 *   sorter/  end-to-end sorters and simulators
 *   baseline/ CPU comparators and published results
 */

#ifndef BONSAI_BONSAI_HPP
#define BONSAI_BONSAI_HPP

#include "common/checks.hpp"
#include "common/gensort.hpp"
#include "common/random.hpp"
#include "common/record.hpp"
#include "common/run.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

#include "model/merger_costs.hpp"
#include "model/params.hpp"
#include "model/perf_model.hpp"
#include "model/resource_model.hpp"

#include "core/host_planner.hpp"
#include "core/optimizer.hpp"
#include "core/platforms.hpp"
#include "core/scalability.hpp"
#include "core/ssd_planner.hpp"

#include "sorter/behavioral.hpp"
#include "sorter/merge_path.hpp"
#include "sorter/pipeline_sim.hpp"
#include "sorter/range_partitioner.hpp"
#include "sorter/sim_sorter.hpp"
#include "sorter/sorters.hpp"
#include "sorter/stage_sim.hpp"

#include "baseline/cpu_sorters.hpp"
#include "baseline/published.hpp"

#endif // BONSAI_BONSAI_HPP
