/*
 * The step loop of enhq.dynamics._dormand_prince for a label polynomial, from
 * its start to its finished arrays: sample times, samples, energies and
 * event roots.
 *
 * It integrates p' = -dH/dq, q' = dH/dp with the Dormand-Prince 5(4) pair in
 * the operation order of the Python loop, its first step size included, and
 * evaluates H and its gradient from the (c, i, j) terms that
 * enhq.correspondence._LabelPolynomial compiles, in the order and grouping of
 * its generated code.  Samples and event roots come from each step's quartic
 * dense output, formed as _quartic and _interpolate form it, and the roots
 * from Brent's method as _brent runs it.  Built with -O2 -ffp-contract=off
 * and no fast-math, every operation is one IEEE double operation rounded as
 * Python and numpy round it, so the two loops agree bit for bit; the library
 * is admitted to its cache only after it shows this on probe orbits.
 *
 * buf holds the sample times, p, q and H (n_eval each), the state y = (t, p,
 * q, dp/dt, dq/dt, h_abs), out (5 doubles) and the hit rows (4 n_rows
 * doubles); count holds the samples written, the accepted steps, the
 * rejected steps, the gradient calls and the hit rows written by this call.
 * A call with no accepted step in count starts the flow at (p0, q0): it
 * writes the times as np.linspace(0, t_final, n_eval) does and takes the
 * first step size.  An accepted step end where dq/dt turned nonnegative
 * (event 0, the bounce) or q - q_floor <= 0 (event 1, the floor) has each
 * root found on the step's dense output, the hits after a floor root
 * dropped, and the rest written as rows (event, t, p, q).  Then each step end
 * writes the samples at the times up to it, or up to the floor root, with H
 * there.  enhq_flow runs until
 *   RK45_DONE       the flow ended, at t_final or at a floor root;
 *   RK45_FULL       the hit rows cannot hold another step's two: y holds the
 *                   step end to resume from, by a call with the same buf and
 *                   count;
 *   RK45_UNDERFLOW  the step size fell below ten ulp of t, or the first one
 *                   is 0: y holds the last accepted state;
 *   RK45_NONFINITE  a rate is not finite: out holds (t, p, q) of the start,
 *                   the stage or the point Brent's method tried, and (dH/dq,
 *                   dH/dp) there;
 *   RK45_NOROOT     Brent's method met a nan or did not converge: out holds
 *                   the step's (t, t_new).
 */
#include <float.h>
#include <math.h>
#include <stdint.h>

enum { RK45_DONE, RK45_FULL, RK45_UNDERFLOW, RK45_NONFINITE, RK45_NOROOT, GO_ON = -1 };

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
/* Shampine's (1986) dense output, _DENSE: the x^2, x^3 and x^4 coefficients
 * on the rates of stages 1 and 3-7 */
static const double DENSE[3][6] = {
    {-8048581381.0 / 2820520608, 131558114200.0 / 32700410799, -1754552775.0 / 470086768,
     127303824393.0 / 49829197408, -282668133.0 / 205662961, 40617522.0 / 29380423},
    {8663915743.0 / 2820520608, -68118460800.0 / 10900136933, 14199869525.0 / 1410260304,
     -318862633887.0 / 49829197408, 2019193451.0 / 616988883, -110615467.0 / 29380423},
    {-12715105075.0 / 11282082432, 87487479700.0 / 32700410799, -10690763975.0 / 1880347072,
     701980252875.0 / 199316789632, -1453857185.0 / 822651844, 69997945.0 / 29380423},
};
/* _brent: scipy's brentq with xtol = rtol = 4 eps and its 100 iterations */
static const double BRENT_TOL = 4 * DBL_EPSILON;
static const int BRENT_ITERATIONS = 100;

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

/* the polynomial, its floor and where gradient calls are counted and
 * failures reported */
struct flow {
    const double *d_p, *d_q;
    int64_t n_p, n_q, *calls;
    double q_floor, *out;
};

/* the rates (kp, kq) = (-dH/dq, dH/dp) at (p, q), a gradient call, or
 * RK45_NONFINITE with (t, p, q) and the rates in out */
static int rates(const struct flow *fl, double t, double p, double q, double *kp, double *kq)
{
    double a = term_sum(fl->d_p, fl->n_p, p, q), b = term_sum(fl->d_q, fl->n_q, p, q);
    ++*fl->calls;
    if (!(isfinite(a) && isfinite(b))) {
        double *out = fl->out;
        out[0] = t, out[1] = p, out[2] = q, out[3] = b, out[4] = a;
        return RK45_NONFINITE;
    }
    *kp = -b, *kq = a;
    return GO_ON;
}

/* an accepted step from (t, p, q) of size h, and the coefficients of x to
 * x^4 of its dense output in each component */
struct step {
    double t, h, p, q, cp[4], cq[4];
};

/* the rates of stages 1 and 3-7 of one component in c, those of x to x^4 out */
static void quartic(double *c, double f, double k3, double k4, double k5, double k6, double k7)
{
    c[0] = f;
    for (int r = 0; r < 3; r++) {
        const double *d = DENSE[r];
        c[r + 1] = f * d[0] + k3 * d[1] + k4 * d[2] + k5 * d[3] + k6 * d[4] + k7 * d[5];
    }
}

/* y(s) = h (c1 x + c2 x^2 + c3 x^3 + c4 x^4) + y with x = (s - t) / h */
static double interpolate(const struct step *st, const double *c, double y, double s)
{
    double x = (s - st->t) / st->h, x2 = x * x, x3 = x2 * x, x4 = x3 * x;
    return st->h * (c[0] * x + c[1] * x2 + c[2] * x3 + c[3] * x4) + y;
}

/* event k at s on the step's dense output: dH/dp for the bounce, q - q_floor
 * for the floor */
static int event_value(const struct flow *fl, const struct step *st, int k, double s, double *f)
{
    double p = interpolate(st, st->cp, st->p, s), q = interpolate(st, st->cq, st->q, s), kp;
    if (k) {
        *f = q - fl->q_floor;
        return GO_ON;
    }
    return rates(fl, s, p, q, &kp, f);
}

static int no_root(const struct flow *fl, double a, double b)
{
    fl->out[0] = a, fl->out[1] = b;
    return RK45_NOROOT;
}

/* The root of event k in [st->t, b], where it takes the values fa and fb:
 * scipy's brentq, in its operation order */
static int brent(const struct flow *fl, const struct step *st, int k, double b, double fa,
                 double fb, double *root)
{
    double xpre = st->t, xcur = b, fpre = fa, fcur = fb;
    double xblk = 0, fblk = 0, spre = 0, scur = 0;
    if (fpre == 0) {
        *root = xpre;
        return GO_ON;
    }
    if (fcur == 0) {
        *root = xcur;
        return GO_ON;
    }
    if (!((fpre < 0 && 0 < fcur) || (fcur < 0 && 0 < fpre)))
        return no_root(fl, st->t, b);
    for (int n = 0; n < BRENT_ITERATIONS; n++) {
        if (fpre != 0 && fcur != 0 && (fpre < 0) != (fcur < 0)) {
            xblk = xpre, fblk = fpre;
            spre = scur = xcur - xpre;
        }
        if (fabs(fblk) < fabs(fcur)) {
            xpre = xcur, xcur = xblk, xblk = xpre;
            fpre = fcur, fcur = fblk, fblk = fpre;
        }
        double delta = (BRENT_TOL + BRENT_TOL * fabs(xcur)) / 2;
        double sbis = (xblk - xcur) / 2;
        if (fcur == 0 || fabs(sbis) < delta) {
            *root = xcur;
            return GO_ON;
        }
        if (fabs(spre) > delta && fabs(fcur) < fabs(fpre)) {
            double stry;
            if (xpre == xblk) {
                stry = -fcur * (xcur - xpre) / (fcur - fpre);
            } else {
                double dpre = (fpre - fcur) / (xpre - xcur);
                double dblk = (fblk - fcur) / (xblk - xcur);
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre));
            }
            double bound = 3 * fabs(sbis) - delta;
            if (2 * fabs(stry) < (fabs(spre) < bound ? fabs(spre) : bound)) {
                spre = scur, scur = stry;
            } else {
                spre = scur = sbis;
            }
        } else {
            spre = scur = sbis;
        }
        xpre = xcur, fpre = fcur;
        xcur += fabs(scur) > delta ? scur : sbis > 0 ? delta : -delta;
        int status = event_value(fl, st, k, xcur, &fcur);
        if (status != GO_ON)
            return status;
        if (isnan(fcur))
            break;
    }
    return no_root(fl, st->t, b);
}

/* np.linspace(0, t_final, n): i * (t_final / (n - 1)), or (i / (n - 1)) *
 * t_final where that step is 0, and t_final last */
static void linspace(double *ts, int64_t n, double t_final)
{
    double div = (double)(n - 1), step = t_final / div;
    for (int64_t i = 0; i < n - 1; i++)
        ts[i] = step != 0 ? (double)i * step : ((double)i / div) * t_final;
    ts[n - 1] = t_final;
}

static double rms(double x, double y)
{
    return sqrt(x * x + y * y) / sqrt(2.0);
}

/* The first step size from (p, q) with rates (fp, fq), as _dormand_prince
 * takes it: min and max are Python's, the first argument unless a later one
 * is strictly smaller or larger.  h0 == 0 is a step-size underflow at t = 0. */
static int first_step(const struct flow *fl, double p, double q, double fp, double fq,
                      double t_final, double rtol, double atol, double *h_abs)
{
    double sp = atol + fabs(p) * rtol, sq = atol + fabs(q) * rtol;
    double d0 = rms(p / sp, q / sq), d1 = rms(fp / sp, fq / sq), gp, gq, d2, h1, h;
    double h0 = d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1;
    if (t_final < h0)
        h0 = t_final;
    if (h0 == 0)
        return RK45_UNDERFLOW;
    int status = rates(fl, h0, p + h0 * fp, q + h0 * fq, &gp, &gq);
    if (status != GO_ON)
        return status;
    d2 = rms((gp - fp) / sp, (gq - fq) / sq) / h0;
    if (d1 <= 1e-15 && d2 <= 1e-15)
        h1 = h0 * 1e-3 > 1e-6 ? h0 * 1e-3 : 1e-6;
    else
        h1 = pow(0.01 / (d2 > d1 ? d2 : d1), 0.2);
    h = 100 * h0;
    if (h1 < h)
        h = h1;
    *h_abs = t_final < h ? t_final : h;
    return GO_ON;
}

/* the rates (kp, kq) of a stage, or a return with its failure */
#define STAGE(kp, kq, ts, sp, sq)                                               \
    do {                                                                        \
        int status_ = rates(&fl, ts, sp, sq, &kp, &kq);                         \
        if (status_ != GO_ON)                                                   \
            return status_;                                                     \
    } while (0)

int enhq_flow(const double *d_h, int64_t n_h, const double *d_p, int64_t n_p, const double *d_q,
              int64_t n_q, double p0, double q0, double t_final, double rtol, double atol,
              double q_floor, int64_t n_eval, int64_t n_rows, double *buf, int64_t *count)
{
    double *t_eval = buf, *ps = buf + n_eval, *qs = ps + n_eval, *hs = qs + n_eval;
    double *y = hs + n_eval, *out = y + 6, *rows = out + 5, t, p, q, fp, fq, h_abs;
    const struct flow fl = {d_p, d_q, n_p, n_q, &count[3], q_floor, out};

    if (rtol < 100 * DBL_EPSILON)
        rtol = 100 * DBL_EPSILON;
    count[4] = 0;
    if (count[1]) { /* a call after RK45_FULL */
        t = y[0], p = y[1], q = y[2], fp = y[3], fq = y[4], h_abs = y[5];
    } else {
        linspace(t_eval, n_eval, t_final);
        t = 0.0, p = p0, q = q0;
        STAGE(fp, fq, t, p, q);
        int status = first_step(&fl, p, q, fp, fq, t_final, rtol, atol, &h_abs);
        if (status == RK45_UNDERFLOW)
            y[0] = t, y[1] = p, y[2] = q;
        if (status != GO_ON)
            return status;
    }
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
            error = rms(x, z);
            if (error < 1) {
                double factor = error != 0 ? SAFETY * pow(error, -0.2) : MAX_FACTOR;
                double cap = rejected ? 1.0 : MAX_FACTOR;
                h_abs *= factor > cap ? cap : factor;
                break;
            }
            double factor = SAFETY * pow(error, -0.2);
            h_abs *= factor > MIN_FACTOR ? factor : MIN_FACTOR;
            rejected = 1;
            count[2]++;
        }
        count[1]++;

        int bounce = fq < 0 && 0 <= k7q, at_floor = q_new - q_floor <= 0;
        int64_t i = count[0];
        double t_end = t_new;
        struct step st = {t, h, p, q, {0}, {0}};
        if (bounce || at_floor || (i < n_eval && t_eval[i] <= t_new)) {
            quartic(st.cp, fp, k3p, k4p, k5p, k6p, k7p);
            quartic(st.cq, fq, k3q, k4q, k5q, k6q, k7q);
        }
        if (bounce || at_floor) {
            /* the roots in time order, none after the floor's */
            double roots[2];
            int kinds[2], n = 0, status;
            if (bounce) {
                status = brent(&fl, &st, 0, t_new, fq, k7q, &roots[n]);
                if (status != GO_ON)
                    return status;
                kinds[n++] = 0;
            }
            if (at_floor) {
                status = brent(&fl, &st, 1, t_new, q - q_floor, q_new - q_floor, &roots[n]);
                if (status != GO_ON)
                    return status;
                kinds[n++] = 1;
                if (n == 2 && roots[1] < roots[0])
                    roots[0] = roots[1], kinds[0] = 1, n = 1;
                t_end = roots[n - 1];
            }
            for (int k = 0; k < n; k++) {
                double *row = rows + 4 * count[4]++;
                row[0] = kinds[k], row[1] = roots[k];
                row[2] = interpolate(&st, st.cp, p, roots[k]);
                row[3] = interpolate(&st, st.cq, q, roots[k]);
            }
        }
        for (; i < n_eval && t_eval[i] <= t_end; i++) {
            ps[i] = interpolate(&st, st.cp, p, t_eval[i]);
            qs[i] = interpolate(&st, st.cq, q, t_eval[i]);
            hs[i] = term_sum(d_h, n_h, ps[i], qs[i]);
        }
        count[0] = i;
        if (at_floor || t_new >= t_final)
            return RK45_DONE;
        t = t_new, p = p_new, q = q_new, fp = k7p, fq = k7q;
        if (count[4] + 2 > n_rows) {
            y[0] = t, y[1] = p, y[2] = q, y[3] = fp, y[4] = fq, y[5] = h_abs;
            return RK45_FULL;
        }
    }
}
