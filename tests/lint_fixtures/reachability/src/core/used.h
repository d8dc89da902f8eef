// Included by bench/main.cpp: reached.
#pragma once
int used();
