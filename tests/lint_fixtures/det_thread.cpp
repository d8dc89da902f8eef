// Lint fixture: exactly one lint_determinism finding (the bare
// std::thread). The annotated std::jthread is accepted. Never compiled.
#include <thread>
#include <vector>

int
lintFixtureThreads()
{
    std::vector<int> parts(2);
    std::thread racer([&] { parts[0] = 1; }); // finding: no reason
    racer.join();
    // det-safe: the worker owns parts[1] alone and is joined before
    // the sum reads it, so the schedule cannot reach the result.
    std::jthread worker([&] { parts[1] = 2; });
    worker.join();
    return parts[0] + parts[1];
}
