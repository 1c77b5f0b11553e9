package binary

import (
	"fmt"

	"paydemand/internal/geo"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// Field tags per message. Tags are append-only: never reuse or renumber a
// tag once released (DESIGN.md §14 evolution rules). TestJSONFieldParity
// gives every field of each message a distinct value and requires the
// TLV round trip to return it, so a field added to only the JSON codec,
// or two fields sharing a tag, fails the tests.
const (
	tagPointX = 1
	tagPointY = 2

	tagTaskInfoID       = 1
	tagTaskInfoLocation = 2
	tagTaskInfoDeadline = 3
	tagTaskInfoRequired = 4
	tagTaskInfoReceived = 5
	tagTaskInfoReward   = 6

	tagRoundInfoRound     = 1
	tagRoundInfoTasks     = 2
	tagRoundInfoDone      = 3
	tagRoundInfoUnchanged = 4

	tagPlanRequestUserID       = 1
	tagPlanRequestLocation     = 2
	tagPlanRequestSpeed        = 3
	tagPlanRequestTimeBudget   = 4
	tagPlanRequestCostPerMeter = 5

	tagPlanResponseRound    = 1
	tagPlanResponseOrder    = 2
	tagPlanResponseDistance = 3
	tagPlanResponseReward   = 4
	tagPlanResponseCost     = 5
	tagPlanResponseProfit   = 6

	tagMeasurementTaskID = 1
	tagMeasurementValue  = 2

	tagSubmitRequestUserID       = 1
	tagSubmitRequestRound        = 2
	tagSubmitRequestMeasurements = 3
	tagSubmitRequestLocation     = 4

	tagSubmitResultTaskID   = 1
	tagSubmitResultAccepted = 2
	tagSubmitResultReward   = 3
	tagSubmitResultReason   = 4

	tagSubmitResponseResults   = 1
	tagSubmitResponseTotalPaid = 2
)

// appendPoint appends a geo.Point as a nested message field.
func appendPoint(b []byte, tag uint8, p geo.Point) []byte {
	b = append(b, tag, wtMsg)
	var at int
	b, at = beginLen(b)
	b = appendF64(b, tagPointX, p.X)
	b = appendF64(b, tagPointY, p.Y)
	return endLen(b, at)
}

// decodePoint decodes a nested Point payload.
func decodePoint(data []byte, p *geo.Point) error {
	r := &reader{data: data}
	for r.remaining() > 0 {
		tag, wt, err := r.head()
		if err != nil {
			return err
		}
		switch {
		case tag == tagPointX && wt == wtF64:
			p.X, err = r.f64()
		case tag == tagPointY && wt == wtF64:
			p.Y, err = r.f64()
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return fmt.Errorf("Point tag %d: %w", tag, err)
		}
	}
	return nil
}

// pointField reads a wtMsg payload into p.
func (r *reader) pointField(p *geo.Point) error {
	payload, err := r.varPayload()
	if err != nil {
		return err
	}
	return decodePoint(payload, p)
}

// AppendRoundInfo encodes m, appending to b.
func AppendRoundInfo(b []byte, m *wire.RoundInfo) []byte {
	b = appendI64(b, tagRoundInfoRound, int64(m.Round))
	b = append(b, tagRoundInfoTasks, wtMsgList)
	var listAt int
	b, listAt = beginLen(b)
	b = appendU32(b, uint32(len(m.Tasks)))
	for i := range m.Tasks {
		t := &m.Tasks[i]
		var at int
		b, at = beginLen(b)
		b = appendI64(b, tagTaskInfoID, int64(t.ID))
		b = appendPoint(b, tagTaskInfoLocation, t.Location)
		b = appendI64(b, tagTaskInfoDeadline, int64(t.Deadline))
		b = appendI64(b, tagTaskInfoRequired, int64(t.Required))
		b = appendI64(b, tagTaskInfoReceived, int64(t.Received))
		b = appendF64(b, tagTaskInfoReward, t.Reward)
		b = endLen(b, at)
	}
	b = endLen(b, listAt)
	b = appendBool(b, tagRoundInfoDone, m.Done)
	b = appendBool(b, tagRoundInfoUnchanged, m.Unchanged)
	return b
}

// decodeTaskInfo decodes one TaskInfo payload.
func decodeTaskInfo(data []byte, t *wire.TaskInfo) error {
	r := &reader{data: data}
	for r.remaining() > 0 {
		tag, wt, err := r.head()
		if err != nil {
			return err
		}
		switch {
		case tag == tagTaskInfoID && wt == wtI64:
			var v int64
			v, err = r.i64()
			t.ID = task.ID(v)
		case tag == tagTaskInfoLocation && wt == wtMsg:
			err = r.pointField(&t.Location)
		case tag == tagTaskInfoDeadline && wt == wtI64:
			t.Deadline, err = r.int()
		case tag == tagTaskInfoRequired && wt == wtI64:
			t.Required, err = r.int()
		case tag == tagTaskInfoReceived && wt == wtI64:
			t.Received, err = r.int()
		case tag == tagTaskInfoReward && wt == wtF64:
			t.Reward, err = r.f64()
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return fmt.Errorf("TaskInfo tag %d: %w", tag, err)
		}
	}
	return nil
}

// DecodeRoundInfo decodes data into m, reusing m's slices. Fields absent
// from the data keep their zero value; unknown tags are skipped.
func DecodeRoundInfo(data []byte, m *wire.RoundInfo) error {
	*m = wire.RoundInfo{Tasks: m.Tasks[:0]}
	r := &reader{data: data}
	for r.remaining() > 0 {
		tag, wt, err := r.head()
		if err != nil {
			return err
		}
		switch {
		case tag == tagRoundInfoRound && wt == wtI64:
			m.Round, err = r.int()
		case tag == tagRoundInfoTasks && wt == wtMsgList:
			var n int
			var elems []byte
			n, elems, err = r.msgList()
			if err != nil {
				break
			}
			if cap(m.Tasks) < n {
				m.Tasks = make([]wire.TaskInfo, 0, n)
			}
			m.Tasks = m.Tasks[:0]
			sub := reader{data: elems}
			for i := 0; i < n; i++ {
				var payload []byte
				payload, err = sub.varPayload()
				if err != nil {
					break
				}
				var t wire.TaskInfo
				if err = decodeTaskInfo(payload, &t); err != nil {
					break
				}
				m.Tasks = append(m.Tasks, t)
			}
		case tag == tagRoundInfoDone && wt == wtBool:
			m.Done, err = r.boolean()
		case tag == tagRoundInfoUnchanged && wt == wtBool:
			m.Unchanged, err = r.boolean()
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return fmt.Errorf("binary: RoundInfo tag %d: %w", tag, err)
		}
	}
	return nil
}

// AppendPlanRequest encodes m, appending to b.
func AppendPlanRequest(b []byte, m *wire.PlanRequest) []byte {
	b = appendI64(b, tagPlanRequestUserID, int64(m.UserID))
	b = appendPoint(b, tagPlanRequestLocation, m.Location)
	b = appendF64(b, tagPlanRequestSpeed, m.Speed)
	b = appendF64(b, tagPlanRequestTimeBudget, m.TimeBudget)
	b = appendF64(b, tagPlanRequestCostPerMeter, m.CostPerMeter)
	return b
}

// DecodePlanRequest decodes data into m.
func DecodePlanRequest(data []byte, m *wire.PlanRequest) error {
	*m = wire.PlanRequest{}
	r := &reader{data: data}
	for r.remaining() > 0 {
		tag, wt, err := r.head()
		if err != nil {
			return err
		}
		switch {
		case tag == tagPlanRequestUserID && wt == wtI64:
			m.UserID, err = r.int()
		case tag == tagPlanRequestLocation && wt == wtMsg:
			err = r.pointField(&m.Location)
		case tag == tagPlanRequestSpeed && wt == wtF64:
			m.Speed, err = r.f64()
		case tag == tagPlanRequestTimeBudget && wt == wtF64:
			m.TimeBudget, err = r.f64()
		case tag == tagPlanRequestCostPerMeter && wt == wtF64:
			m.CostPerMeter, err = r.f64()
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return fmt.Errorf("binary: PlanRequest tag %d: %w", tag, err)
		}
	}
	return nil
}

// AppendPlanResponse encodes m, appending to b.
func AppendPlanResponse(b []byte, m *wire.PlanResponse) []byte {
	b = appendI64(b, tagPlanResponseRound, int64(m.Round))
	b = append(b, tagPlanResponseOrder, wtI64List)
	b = appendU32(b, uint32(8*len(m.Order)))
	for _, id := range m.Order {
		u := uint64(int64(id))
		b = append(b,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	b = appendF64(b, tagPlanResponseDistance, m.Distance)
	b = appendF64(b, tagPlanResponseReward, m.Reward)
	b = appendF64(b, tagPlanResponseCost, m.Cost)
	b = appendF64(b, tagPlanResponseProfit, m.Profit)
	return b
}

// DecodePlanResponse decodes data into m, reusing m.Order.
func DecodePlanResponse(data []byte, m *wire.PlanResponse) error {
	*m = wire.PlanResponse{Order: m.Order[:0]}
	r := &reader{data: data}
	for r.remaining() > 0 {
		tag, wt, err := r.head()
		if err != nil {
			return err
		}
		switch {
		case tag == tagPlanResponseRound && wt == wtI64:
			m.Round, err = r.int()
		case tag == tagPlanResponseOrder && wt == wtI64List:
			var p []byte
			p, err = r.varPayload()
			if err != nil {
				break
			}
			if len(p)%8 != 0 {
				err = fmt.Errorf("%w: order payload of %d bytes", ErrLength, len(p))
				break
			}
			m.Order = m.Order[:0]
			for i := 0; i+8 <= len(p); i += 8 {
				u := uint64(p[i]) | uint64(p[i+1])<<8 | uint64(p[i+2])<<16 | uint64(p[i+3])<<24 |
					uint64(p[i+4])<<32 | uint64(p[i+5])<<40 | uint64(p[i+6])<<48 | uint64(p[i+7])<<56
				m.Order = append(m.Order, task.ID(int64(u)))
			}
		case tag == tagPlanResponseDistance && wt == wtF64:
			m.Distance, err = r.f64()
		case tag == tagPlanResponseReward && wt == wtF64:
			m.Reward, err = r.f64()
		case tag == tagPlanResponseCost && wt == wtF64:
			m.Cost, err = r.f64()
		case tag == tagPlanResponseProfit && wt == wtF64:
			m.Profit, err = r.f64()
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return fmt.Errorf("binary: PlanResponse tag %d: %w", tag, err)
		}
	}
	return nil
}

// AppendSubmitRequest encodes m, appending to b.
func AppendSubmitRequest(b []byte, m *wire.SubmitRequest) []byte {
	b = appendI64(b, tagSubmitRequestUserID, int64(m.UserID))
	b = appendI64(b, tagSubmitRequestRound, int64(m.Round))
	b = append(b, tagSubmitRequestMeasurements, wtMsgList)
	var listAt int
	b, listAt = beginLen(b)
	b = appendU32(b, uint32(len(m.Measurements)))
	for i := range m.Measurements {
		mm := &m.Measurements[i]
		var at int
		b, at = beginLen(b)
		b = appendI64(b, tagMeasurementTaskID, int64(mm.TaskID))
		b = appendF64(b, tagMeasurementValue, mm.Value)
		b = endLen(b, at)
	}
	b = endLen(b, listAt)
	b = appendPoint(b, tagSubmitRequestLocation, m.Location)
	return b
}

// decodeMeasurement decodes one Measurement payload.
func decodeMeasurement(data []byte, m *wire.Measurement) error {
	r := &reader{data: data}
	for r.remaining() > 0 {
		tag, wt, err := r.head()
		if err != nil {
			return err
		}
		switch {
		case tag == tagMeasurementTaskID && wt == wtI64:
			var v int64
			v, err = r.i64()
			m.TaskID = task.ID(v)
		case tag == tagMeasurementValue && wt == wtF64:
			m.Value, err = r.f64()
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return fmt.Errorf("Measurement tag %d: %w", tag, err)
		}
	}
	return nil
}

// DecodeSubmitRequest decodes data into m, reusing m.Measurements.
func DecodeSubmitRequest(data []byte, m *wire.SubmitRequest) error {
	*m = wire.SubmitRequest{Measurements: m.Measurements[:0]}
	r := &reader{data: data}
	for r.remaining() > 0 {
		tag, wt, err := r.head()
		if err != nil {
			return err
		}
		switch {
		case tag == tagSubmitRequestUserID && wt == wtI64:
			m.UserID, err = r.int()
		case tag == tagSubmitRequestRound && wt == wtI64:
			m.Round, err = r.int()
		case tag == tagSubmitRequestMeasurements && wt == wtMsgList:
			var n int
			var elems []byte
			n, elems, err = r.msgList()
			if err != nil {
				break
			}
			if cap(m.Measurements) < n {
				m.Measurements = make([]wire.Measurement, 0, n)
			}
			m.Measurements = m.Measurements[:0]
			sub := reader{data: elems}
			for i := 0; i < n; i++ {
				var payload []byte
				payload, err = sub.varPayload()
				if err != nil {
					break
				}
				var mm wire.Measurement
				if err = decodeMeasurement(payload, &mm); err != nil {
					break
				}
				m.Measurements = append(m.Measurements, mm)
			}
		case tag == tagSubmitRequestLocation && wt == wtMsg:
			err = r.pointField(&m.Location)
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return fmt.Errorf("binary: SubmitRequest tag %d: %w", tag, err)
		}
	}
	return nil
}

// AppendSubmitResponse encodes m, appending to b.
func AppendSubmitResponse(b []byte, m *wire.SubmitResponse) []byte {
	b = append(b, tagSubmitResponseResults, wtMsgList)
	var listAt int
	b, listAt = beginLen(b)
	b = appendU32(b, uint32(len(m.Results)))
	for i := range m.Results {
		res := &m.Results[i]
		var at int
		b, at = beginLen(b)
		b = appendI64(b, tagSubmitResultTaskID, int64(res.TaskID))
		b = appendBool(b, tagSubmitResultAccepted, res.Accepted)
		b = appendF64(b, tagSubmitResultReward, res.Reward)
		b = appendString(b, tagSubmitResultReason, res.Reason)
		b = endLen(b, at)
	}
	b = endLen(b, listAt)
	b = appendF64(b, tagSubmitResponseTotalPaid, m.TotalPaid)
	return b
}

// decodeSubmitResult decodes one SubmitResult payload.
func decodeSubmitResult(data []byte, res *wire.SubmitResult) error {
	r := &reader{data: data}
	for r.remaining() > 0 {
		tag, wt, err := r.head()
		if err != nil {
			return err
		}
		switch {
		case tag == tagSubmitResultTaskID && wt == wtI64:
			var v int64
			v, err = r.i64()
			res.TaskID = task.ID(v)
		case tag == tagSubmitResultAccepted && wt == wtBool:
			res.Accepted, err = r.boolean()
		case tag == tagSubmitResultReward && wt == wtF64:
			res.Reward, err = r.f64()
		case tag == tagSubmitResultReason && wt == wtBytes:
			res.Reason, err = r.str()
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return fmt.Errorf("SubmitResult tag %d: %w", tag, err)
		}
	}
	return nil
}

// DecodeSubmitResponse decodes data into m, reusing m.Results.
func DecodeSubmitResponse(data []byte, m *wire.SubmitResponse) error {
	*m = wire.SubmitResponse{Results: m.Results[:0]}
	r := &reader{data: data}
	for r.remaining() > 0 {
		tag, wt, err := r.head()
		if err != nil {
			return err
		}
		switch {
		case tag == tagSubmitResponseResults && wt == wtMsgList:
			var n int
			var elems []byte
			n, elems, err = r.msgList()
			if err != nil {
				break
			}
			if cap(m.Results) < n {
				m.Results = make([]wire.SubmitResult, 0, n)
			}
			m.Results = m.Results[:0]
			sub := reader{data: elems}
			for i := 0; i < n; i++ {
				var payload []byte
				payload, err = sub.varPayload()
				if err != nil {
					break
				}
				var res wire.SubmitResult
				if err = decodeSubmitResult(payload, &res); err != nil {
					break
				}
				m.Results = append(m.Results, res)
			}
		case tag == tagSubmitResponseTotalPaid && wt == wtF64:
			m.TotalPaid, err = r.f64()
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return fmt.Errorf("binary: SubmitResponse tag %d: %w", tag, err)
		}
	}
	return nil
}
