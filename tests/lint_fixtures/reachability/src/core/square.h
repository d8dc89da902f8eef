// Included by bench/main.cpp; its override is never named there.
#pragma once

#include "core/shape.h"

class Square final : public Shape
{
  public:
    int area() const override;
};
