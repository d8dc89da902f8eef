// Included by bench/main.cpp. One method only a test calls (flagged),
// one test observer with a reason (accepted) and one without (flagged).
#pragma once

class Widget
{
  public:
    int size() const;
    int testOnlyCount() const;

    /** reachability: test-observer — WidgetTest.CountsCalls reads it. */
    int calls() const;

    // reachability: test-observer
    int probes() const;
};
