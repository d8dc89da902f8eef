#include "core/orphan.h"

int orphan() { return 2; }
