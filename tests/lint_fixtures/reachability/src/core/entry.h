/**
 * reachability: entry-point — called by an out-of-tree binding.
 */
#pragma once
int entry();
