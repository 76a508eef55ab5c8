/// \file
/// The benchmark's metric names and units: one table for the end-to-end
/// metrics every untraced run prints and one for the per-layer metrics
/// every traced run prints. BENCHMARK.json holds their directions and
/// bounds; run.py checks every result line against it.
#pragma once

#include <string>
#include <vector>

namespace chehab::perfbench {

struct MetricSpec
{
    std::string name;
    std::string unit;
};

const std::vector<MetricSpec>& endToEndSpecs();
const std::vector<MetricSpec>& perLayerSpecs();

} // namespace chehab::perfbench
