#include "core/binding.h"
#include "core/widget.h"

int
main()
{
    const Widget w;
    return w.testOnlyCount() + w.calls() + w.probes() + w.hidden() +
           bindingTestHook();
}
