#include "core/square.h"
#include "core/used.h"
#include "core/widget.h"

int
main()
{
    const Square square;
    const Shape &shape = square;
    return used() + Widget().size() + shape.area();
}
