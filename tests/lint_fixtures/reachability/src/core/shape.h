// A virtual that bench/main.cpp calls through the base: the override
// in square.h is reached through it.
#pragma once

class Shape
{
  public:
    virtual ~Shape() = default;
    virtual int area() const = 0;
};
