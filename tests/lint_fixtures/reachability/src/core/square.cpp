#include "core/square.h"

int Square::area() const { return unit() * unit(); }
