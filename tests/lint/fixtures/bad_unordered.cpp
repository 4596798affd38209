// Fixture: unannotated unordered containers the lint must flag.
// Expected findings: [unordered-iter] on the include and every declaration.
#include <cstdint>
#include <unordered_map>

int fixture_unordered() {
    std::unordered_map<int, int> counts;
    counts[3] = 1;
    int total = 0;
    for (const auto& [k, v] : counts) total += k * v;
    return total;
}

int fixture_pmr_unordered() {
    std::pmr::unordered_set<int> seen;
    seen.insert(3);
    return static_cast<int>(seen.size());
}
