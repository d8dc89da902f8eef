// A virtual that bench/main.cpp calls through the base: the override
// in square.h is reached through it. The protected helper is reached
// by an unqualified call in the derived class's code (square.cpp).
#pragma once

class Shape
{
  public:
    virtual ~Shape() = default;
    virtual int area() const = 0;

  protected:
    int unit() const;
};
