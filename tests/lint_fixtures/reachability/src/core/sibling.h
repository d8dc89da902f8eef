// Included by core/used.cpp with the same-directory spelling: reached.
#pragma once
inline int sibling() { return 1; }
