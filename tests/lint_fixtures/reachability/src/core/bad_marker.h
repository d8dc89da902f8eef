// reachability: entry-point
#pragma once
int badMarker();
