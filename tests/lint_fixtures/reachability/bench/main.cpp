#include "core/square.h"
#include "core/used.h"
#include "core/widget.h"

// Shares its name with Widget::hidden, which it does not reach.
static int
hidden()
{
    return 0;
}

int
main()
{
    const Square square;
    const Shape &shape = square;
    return used() + Widget().size() + shape.area() + hidden();
}
