#include "core/used.h"

int main() { return used(); }
