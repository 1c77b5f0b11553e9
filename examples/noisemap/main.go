// Noisemap: the paper's motivating application. A city is divided into a
// grid of cells, each cell is a location-dependent sensing task asking for
// repeated dBA readings, and crowd workers with smartphones collect them
// under the demand-based dynamic incentive. The example runs the campaign
// in-process (platform + workers over the wire protocol on a local
// listener), aggregates each cell's readings with the platform's robust
// mean, renders the resulting noise map as ASCII art next to the ground
// truth, and reports the map's mean absolute error.
package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"paydemand"
)

// gridSide is the noise map resolution (gridSide x gridSide cells).
const gridSide = 5

// areaSide is the city's side length in meters.
const areaSide = 3000.0

// trueNoise is the ground-truth noise field in dBA: loud around the
// "highway" diagonal, quiet in the corners.
func trueNoise(p paydemand.Point) float64 {
	highway := math.Abs(p.X-p.Y) / areaSide // 0 on the diagonal
	return 75 - 25*highway
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "noisemap:", err)
		os.Exit(1)
	}
}

func run() error {
	// One sensing task per grid cell, each wanting 5 independent readings
	// within 6 rounds.
	var tasks []paydemand.Task
	cell := areaSide / gridSide
	for r := 0; r < gridSide; r++ {
		for c := 0; c < gridSide; c++ {
			tasks = append(tasks, paydemand.Task{
				ID:       paydemand.TaskID(r*gridSide + c + 1),
				Location: paydemand.Pt((float64(c)+0.5)*cell, (float64(r)+0.5)*cell),
				Deadline: 6,
				Required: 5,
			})
		}
	}

	scheme, err := paydemand.NewRewardScheme(500, len(tasks)*5, 0.25, 5)
	if err != nil {
		return err
	}
	mech, err := paydemand.NewOnDemandMechanism(scheme)
	if err != nil {
		return err
	}
	platform, err := paydemand.NewPlatform(paydemand.PlatformConfig{
		Tasks:          tasks,
		Mechanism:      mech,
		Area:           paydemand.Square(areaSide),
		NeighborRadius: 500,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(platform)
	defer srv.Close()

	// Crowd workers with noisy microphones: each reading is the true field
	// plus sensor error. Every fifth worker carries a broken microphone
	// reading ~40 dBA too high; robust aggregation must absorb them.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := paydemand.NewClient(srv.URL, srv.Client())

	var sensorMu sync.Mutex
	jitter := 0.0
	makeSensor := func(broken bool) paydemand.Sensor {
		return func(_ int64, loc paydemand.Point) float64 {
			sensorMu.Lock()
			defer sensorMu.Unlock()
			jitter += 0.7 // deterministic pseudo-noise, no global RNG
			v := trueNoise(loc) + 3*math.Sin(jitter*13.37)
			if broken {
				v += 40
			}
			return v
		}
	}

	const nWorkers = 30
	var wg sync.WaitGroup
	errCh := make(chan error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		broken := i%5 == 4
		w, err := paydemand.NewWorker(ctx, c, paydemand.WorkerConfig{
			Start: paydemand.Pt(
				float64((i*733)%int(areaSide)),
				float64((i*397)%int(areaSide)),
			),
			Sensor:       makeSensor(broken),
			PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				errCh <- err
			}
		}()
	}

	// Advance rounds until the campaign completes.
	go func() {
		for {
			time.Sleep(40 * time.Millisecond)
			adv, err := c.Advance(ctx)
			if err != nil || adv.Done {
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}

	status, err := c.Status(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("Noise mapping campaign: %d cells, %d workers\n", len(tasks), nWorkers)
	fmt.Printf("coverage %.0f%%, completeness %.0f%%, %d readings, $%.2f paid\n\n",
		status.Coverage*100, status.OverallCompleteness*100,
		status.TotalMeasurements, status.TotalRewardPaid)

	fmt.Println("Estimated noise map (robust-mean dBA per cell; '??' = no data):")
	printMap(func(id paydemand.TaskID) (float64, bool) {
		est, err := platform.Estimate(id)
		if err != nil {
			return 0, false
		}
		return est.Value, true
	})

	fmt.Println("\nGround truth:")
	printMap(func(id paydemand.TaskID) (float64, bool) {
		return trueNoise(tasks[int(id)-1].Location), true
	})

	// The map error shows whether the broken microphones were absorbed.
	var errSum float64
	var cells int
	for _, tk := range tasks {
		est, err := platform.Estimate(tk.ID)
		if err != nil {
			continue
		}
		errSum += math.Abs(est.Value - trueNoise(tk.Location))
		cells++
	}
	if cells > 0 {
		fmt.Printf("\nMean absolute error over %d mapped cells: %.2f dBA\n", cells, errSum/float64(cells))
	}
	return nil
}

// printMap renders the grid with one cell per task.
func printMap(value func(paydemand.TaskID) (float64, bool)) {
	for r := gridSide - 1; r >= 0; r-- { // north at the top
		for c := 0; c < gridSide; c++ {
			id := paydemand.TaskID(r*gridSide + c + 1)
			if v, ok := value(id); ok {
				fmt.Printf(" %5.1f", v)
			} else {
				fmt.Printf(" %5s", "??")
			}
		}
		fmt.Println()
	}
}
