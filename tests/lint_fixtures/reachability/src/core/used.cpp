#include "core/used.h"
#include "sibling.h"

int used() { return sibling(); }
