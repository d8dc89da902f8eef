#include "core/widget.h"

int Widget::size() const { return tally(); }

int Widget::tally() const { return 1; }
