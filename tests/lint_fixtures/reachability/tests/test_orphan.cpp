#include "core/orphan.h"

int main() { return orphan(); }
