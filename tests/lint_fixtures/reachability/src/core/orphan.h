// Only its own .cpp and a test include it: flagged.
#pragma once
int orphan();
