// Included by bench/main.cpp. One method only a test calls (flagged),
// one test observer with a reason (accepted) and one without (flagged),
// one method whose name only a free function in bench/main.cpp shares
// (flagged: a free call does not reach a method), and a private helper
// its own class calls unqualified (accepted).
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

    int hidden() const;

  private:
    int tally() const;
};
