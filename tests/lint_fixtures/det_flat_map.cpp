// Lint fixture: 1 finding expected (line 15) — an unannotated
// FlatMap::forEachUnordered call; the annotated call and the point
// lookup are legal. Never compiled.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/flat_map.h"

std::uint64_t
lintFixtureFlatMap(const rmssd::FlatMap<std::uint64_t> &heat)
{
    std::uint64_t first = 0;
    bool seen = false;
    heat.forEachUnordered([&](std::uint64_t key, std::uint64_t) {
        if (!seen)
            first = key; // leaks bucket order
        seen = true;
    });

    std::vector<std::uint64_t> keys;
    // det-safe: extraction order is erased by the sort below.
    heat.forEachUnordered(
        [&](std::uint64_t key, std::uint64_t) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());

    const std::uint64_t *count = heat.find(first);
    return keys.size() + (count == nullptr ? 0 : *count);
}
