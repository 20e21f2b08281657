/*
 * The step loop of enhq.dynamics._dormand_prince for a label polynomial.
 *
 * It integrates p' = -dH/dq, q' = dH/dp with the Dormand-Prince 5(4) pair in
 * the operation order of the Python loop, and evaluates the gradient from the
 * (c, i, j) terms that enhq.correspondence._LabelPolynomial compiles, in the
 * order and grouping of its generated code.  Built with -O2
 * -ffp-contract=off and no fast-math, every operation is one IEEE double
 * operation rounded as Python rounds it, so the two loops agree bit for bit;
 * the library is admitted to its cache only after it shows this on a probe
 * orbit.
 *
 * enhq_rk45 runs from the state y = (t, p, q, dp/dt, dq/dt, h_abs) until
 *   RK45_DONE       a step reached t_final: its samples are recorded;
 *   RK45_EVENT      an accepted step ended with dq/dt turning nonnegative or
 *                   with q - q_floor <= 0: out holds the step's record and
 *                   (t_new, p_new, q_new), y the next step size, and the step
 *                   is not recorded;
 *   RK45_UNDERFLOW  the step size fell below ten ulp of t: y holds the last
 *                   accepted state;
 *   RK45_NONFINITE  a stage's rate is not finite: out holds (t, p, q) of the
 *                   stage and its rates (-dH/dq, dH/dp).
 * A step end holding samples t_eval[i] (those after at[1]) is recorded as
 * records[at[0]] = (t, h, p, q, the p rates of stages 1 and 3-7, the q rates)
 * with counts[at[0]] the number of samples it holds, and at is advanced.
 */
#include <math.h>
#include <stdint.h>

enum { RK45_DONE, RK45_EVENT, RK45_UNDERFLOW, RK45_NONFINITE };

/* Dormand & Prince (1980), as tabulated in scipy's RK45 */
static const double C2 = 1.0 / 5, C3 = 3.0 / 10, C4 = 4.0 / 5, C5 = 8.0 / 9;
static const double A21 = 1.0 / 5;
static const double A31 = 3.0 / 40, A32 = 9.0 / 40;
static const double A41 = 44.0 / 45, A42 = -56.0 / 15, A43 = 32.0 / 9;
static const double A51 = 19372.0 / 6561, A52 = -25360.0 / 2187, A53 = 64448.0 / 6561,
                    A54 = -212.0 / 729;
static const double A61 = 9017.0 / 3168, A62 = -355.0 / 33, A63 = 46732.0 / 5247,
                    A64 = 49.0 / 176, A65 = -5103.0 / 18656;
static const double B1 = 35.0 / 384, B3 = 500.0 / 1113, B4 = 125.0 / 192,
                    B5 = -2187.0 / 6784, B6 = 11.0 / 84;
static const double E1 = -71.0 / 57600, E3 = 71.0 / 16695, E4 = -71.0 / 1920,
                    E5 = 17253.0 / 339200, E6 = -22.0 / 525, E7 = 1.0 / 40;
static const double SAFETY = 0.9, MIN_FACTOR = 0.2, MAX_FACTOR = 10.0;

/* x^n for n >= 1 as the product x * x * ... * x, left to right */
static double power(double x, int n)
{
    double r = x;
    for (int k = 1; k < n; k++)
        r = r * x;
    return r;
}

/* The sum of the terms c p^i q^j, left to right, each grouped (c * p^i) * q^j
 * with a negative power a division */
static double term_sum(const double *terms, int64_t n, double p, double q)
{
    double s = 0.0;
    for (int64_t k = 0; k < n; k++) {
        double v = terms[3 * k];
        int i = (int)terms[3 * k + 1], j = (int)terms[3 * k + 2];
        if (i)
            v = i > 0 ? v * power(p, i) : v / power(p, -i);
        if (j)
            v = j > 0 ? v * power(q, j) : v / power(q, -j);
        s = k ? s + v : v;
    }
    return s;
}

/* the rates (kp, kq) = (-dH/dq, dH/dp) at the stage (ts, sp, sq), or a return
 * with that stage where a rate is not finite */
#define STAGE(kp, kq, ts, sp, sq)                                               \
    do {                                                                        \
        kq = term_sum(d_p, n_p, sp, sq);                                        \
        kp = term_sum(d_q, n_q, sp, sq);                                        \
        if (!(isfinite(kp) && isfinite(kq))) {                                  \
            out[0] = ts, out[1] = sp, out[2] = sq, out[3] = kp, out[4] = kq;    \
            return RK45_NONFINITE;                                              \
        }                                                                       \
        kp = -kp;                                                               \
    } while (0)

int enhq_rk45(const double *d_p, int64_t n_p, const double *d_q, int64_t n_q, double *y,
              double t_final, double rtol, double atol, double q_floor,
              const double *t_eval, int64_t n_eval, int64_t *at,
              double *records, int64_t *counts, double *out)
{
    double t = y[0], p = y[1], q = y[2], fp = y[3], fq = y[4], h_abs = y[5];
    const double sqrt2 = sqrt(2.0);

    for (;;) {
        double min_step = 10 * (nextafter(t, INFINITY) - t);
        double t_new, h, p_new, q_new, sp, sq, a, b, x, z, error;
        double k2p, k3p, k4p, k5p, k6p, k7p, k2q, k3q, k4q, k5q, k6q, k7q;
        int rejected = 0;
        if (h_abs < min_step)
            h_abs = min_step;
        for (;;) {
            if (h_abs < min_step) {
                y[0] = t, y[1] = p, y[2] = q;
                return RK45_UNDERFLOW;
            }
            t_new = t + h_abs;
            if (t_new > t_final)
                t_new = t_final;
            h = t_new - t;
            h_abs = h;
            sp = p + fp * A21 * h, sq = q + fq * A21 * h;
            STAGE(k2p, k2q, t + C2 * h, sp, sq);
            sp = p + (fp * A31 + k2p * A32) * h;
            sq = q + (fq * A31 + k2q * A32) * h;
            STAGE(k3p, k3q, t + C3 * h, sp, sq);
            sp = p + (fp * A41 + k2p * A42 + k3p * A43) * h;
            sq = q + (fq * A41 + k2q * A42 + k3q * A43) * h;
            STAGE(k4p, k4q, t + C4 * h, sp, sq);
            sp = p + (fp * A51 + k2p * A52 + k3p * A53 + k4p * A54) * h;
            sq = q + (fq * A51 + k2q * A52 + k3q * A53 + k4q * A54) * h;
            STAGE(k5p, k5q, t + C5 * h, sp, sq);
            sp = p + (fp * A61 + k2p * A62 + k3p * A63 + k4p * A64 + k5p * A65) * h;
            sq = q + (fq * A61 + k2q * A62 + k3q * A63 + k4q * A64 + k5q * A65) * h;
            STAGE(k6p, k6q, t + h, sp, sq);
            p_new = p + h * (fp * B1 + k3p * B3 + k4p * B4 + k5p * B5 + k6p * B6);
            q_new = q + h * (fq * B1 + k3q * B3 + k4q * B4 + k5q * B5 + k6q * B6);
            STAGE(k7p, k7q, t + h, p_new, q_new);
            x = (fp * E1 + k3p * E3 + k4p * E4 + k5p * E5 + k6p * E6 + k7p * E7) * h;
            z = (fq * E1 + k3q * E3 + k4q * E4 + k5q * E5 + k6q * E6 + k7q * E7) * h;
            /* the scale atol + max(|y|, |y_new|) rtol, as the Python loop forms it */
            a = p > 0 ? p : -p, b = p_new > 0 ? p_new : -p_new;
            x /= atol + (b > a ? b : a) * rtol;
            a = q > 0 ? q : -q, b = q_new > 0 ? q_new : -q_new;
            z /= atol + (b > a ? b : a) * rtol;
            error = sqrt(x * x + z * z) / sqrt2;
            if (error < 1) {
                double factor = error != 0 ? SAFETY * pow(error, -0.2) : MAX_FACTOR;
                double cap = rejected ? 1.0 : MAX_FACTOR;
                h_abs *= factor > cap ? cap : factor;
                break;
            }
            double factor = SAFETY * pow(error, -0.2);
            h_abs *= factor > MIN_FACTOR ? factor : MIN_FACTOR;
            rejected = 1;
        }

        double step[16] = {t, h, p, q, fp, k3p, k4p, k5p, k6p, k7p,
                           fq, k3q, k4q, k5q, k6q, k7q};
        if ((fq < 0 && 0 <= k7q) || q_new - q_floor <= 0) {
            for (int k = 0; k < 16; k++)
                out[k] = step[k];
            out[16] = t_new, out[17] = p_new, out[18] = q_new;
            y[5] = h_abs;
            return RK45_EVENT;
        }
        int64_t i = at[1];
        if (i < n_eval && t_eval[i] <= t_new) {
            while (i < n_eval && t_eval[i] <= t_new)
                i++;
            for (int k = 0; k < 16; k++)
                records[16 * at[0] + k] = step[k];
            counts[at[0]++] = i - at[1];
            at[1] = i;
        }
        if (t_new >= t_final)
            return RK45_DONE;
        t = t_new, p = p_new, q = q_new, fp = k7p, fq = k7q;
    }
}
