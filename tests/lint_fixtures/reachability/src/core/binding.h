/**
 * reachability: entry-point — called by an out-of-tree binding; the
 * marker also covers a function only the tests call.
 */
#pragma once
int bindingTestHook();
