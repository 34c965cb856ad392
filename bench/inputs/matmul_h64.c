/* examples/c/matmul.c (the paper's Fig. 18 base version) scaled to
 * h = 64 on 16 cores: the long job of the batch_service workload.
 * Every element of Z is 32.
 */
#define NUM_HART 64
#define COLUMN_X 32
#define COLUMN_Y 64
#define COLUMN_Z 64
#include <det_omp.h>

int X[2048] = {[0 ... 2047] = 1};
int Y[2048] = {[0 ... 2047] = 1};
int Z[4096];

void thread(int t) {
    int i; int j; int k; int l; int tmp;
    for (l = 0, i = t; l < 1; l++, i++) {
        for (j = 0; j < COLUMN_Z; j++) {
            tmp = 0;
            for (k = 0; k < COLUMN_X; k++) {
                tmp += X[i * COLUMN_X + k] * Y[k * COLUMN_Y + j];
            }
            Z[i * COLUMN_Z + j] = tmp;
        }
    }
}

void main(void) {
    int t;
    omp_set_num_threads(NUM_HART);
#pragma omp parallel for
    for (t = 0; t < NUM_HART; t++) thread(t);
}
